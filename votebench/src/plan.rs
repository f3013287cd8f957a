//! Inputs: the dataset and the per-workload request plans.
//!
//! The dataset is fixed (the Gnutella clone at scale 1.0 with a fixed
//! generator seed), so every run ranks over the same graph. The
//! workload seed picks everything a client sends: the question pool,
//! the request streams and the vote batches. Plans are pure functions
//! of (dataset, size, seed) and are built before any timing starts.

use kg_bench::load::Zipf;
use kg_bench::setups::vote_scenario;
use kg_datasets::GNUTELLA;
use kg_graph::KnowledgeGraph;
use kg_votes::Vote;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Generator seed of the dataset. Constant on purpose: run-to-run
/// differences then come from the workload seed and the machine, not
/// from a different graph.
pub const DATASET_SEED: u64 = 20_200_420;

/// Answers returned per rank request (`k`).
pub const TOP_K: usize = 10;

/// Client connections per read workload (the machine has two cores).
pub const CONNECTIONS: usize = 2;

/// Segments of a closed-loop timed phase. Each dials fresh connections,
/// so one run pools several thread placements instead of one.
pub const SEGMENTS: usize = 10;

/// How big one run is. `full` is the measured configuration; `tiny` is
/// for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Dataset scale passed to `vote_scenario`.
    pub scale: f64,
    /// Votes the dataset generator keeps (one per distinct query).
    pub votes: usize,
    /// Questions in the read pools.
    pub pool: usize,
    /// Requests pre-generated per connection; the closed loops cycle
    /// through them.
    pub stream_len: usize,
    /// Votes per `/optimize` trigger, and the split-merge batch size.
    pub batch: usize,
    /// Triggers planned per second of `--seconds`.
    pub triggers_per_s: f64,
    /// Open-loop reader arrival rate in `vote_rounds`, requests/s.
    pub reader_rps: f64,
    /// Reader requests per trigger in `vote_rounds`. Fixed, so the
    /// reader's total work is too and its rate follows the round time.
    pub reads_per_trigger: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Size {
    pub const FULL: Size = Size {
        scale: 1.0,
        votes: 1024,
        pool: 1024,
        stream_len: 1 << 16,
        batch: 16,
        triggers_per_s: 2.5,
        reader_rps: 400.0,
        reads_per_trigger: 48,
        setup_reps: 41,
    };

    #[cfg(test)]
    pub const TINY: Size = Size {
        scale: 0.02,
        votes: 48,
        pool: 24,
        stream_len: 512,
        batch: 4,
        triggers_per_s: 4.0,
        reader_rps: 200.0,
        reads_per_trigger: 8,
        setup_reps: 3,
    };

    pub fn name(&self) -> &'static str {
        if self.scale >= 1.0 {
            "full"
        } else {
            "tiny"
        }
    }
}

/// One question a client can ask: a query node and its answer list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub query: u32,
    pub answers: Vec<u32>,
}

/// The generated graph plus everything plans draw from.
pub struct Dataset {
    pub name: String,
    pub graph: KnowledgeGraph,
    /// One question per generated vote, in generation order.
    pub questions: Vec<Question>,
    /// The generated votes (same order as `questions`).
    pub votes: Vec<Vote>,
    /// Every answer node that appears in some answer list, sorted.
    pub answer_pool: Vec<u32>,
}

pub fn dataset(size: &Size) -> Dataset {
    let scenario = vote_scenario(&GNUTELLA, size.votes, size.scale, DATASET_SEED);
    let questions: Vec<Question> = scenario
        .votes
        .votes
        .iter()
        .map(|v| Question {
            query: v.query.0,
            answers: v.answers.iter().map(|a| a.0).collect(),
        })
        .collect();
    let mut answer_pool: Vec<u32> = questions
        .iter()
        .flat_map(|q| q.answers.iter().copied())
        .collect();
    answer_pool.sort_unstable();
    answer_pool.dedup();
    Dataset {
        name: scenario.name,
        graph: scenario.graph,
        questions,
        votes: scenario.votes.votes,
        answer_pool,
    }
}

/// A rank request: an index into the plan's pool plus the answer list
/// actually sent (the pooled list, or a fresh subset in `read_miss`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankReq {
    pub question: usize,
    pub answers: Vec<u32>,
}

/// Read workloads: a pool to warm up, and one request stream per
/// connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    pub pool: Vec<Question>,
    pub streams: Vec<Vec<RankReq>>,
}

/// `vote_rounds`: the writer's triggers (each a batch of votes sent in
/// order, then one `/optimize`), and the open-loop reader's schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct VotePlan {
    /// Questions the writer votes on; the reader ranks these.
    pub pool: Vec<Question>,
    /// Votes per trigger, in send order.
    pub triggers: Vec<Vec<Vote>>,
    /// Reader requests, `reads_per_trigger` per trigger in trigger
    /// order. Trigger `t`'s reads start when the writer starts trigger
    /// `t` (or when the reader finishes trigger `t - 1`'s, if later) and
    /// are then due every `1 / reader_rps` seconds.
    pub reads: Vec<RankReq>,
    pub reads_per_trigger: usize,
    pub reader_rps: f64,
}

fn rng_for(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Questions whose lists are long enough to rank meaningfully, in a
/// seed-chosen order.
fn shuffled_questions(ds: &Dataset, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ds.questions.len())
        .filter(|&i| ds.questions[i].answers.len() >= 2)
        .collect();
    idx.shuffle(rng);
    idx
}

fn pick_pool(ds: &Dataset, size: &Size, seed: u64) -> Vec<Question> {
    let mut rng = rng_for(seed, 1);
    shuffled_questions(ds, &mut rng)
        .into_iter()
        .take(size.pool)
        .map(|i| ds.questions[i].clone())
        .collect()
}

/// `read_hot`: Zipf(1.1) over the pool, each question with its own
/// answer list, so after warm-up nearly every request is a cache hit.
pub fn read_hot(ds: &Dataset, size: &Size, seed: u64) -> ReadPlan {
    let pool = pick_pool(ds, size, seed);
    let zipf = Zipf::new(pool.len(), 1.1);
    // Popularity order is itself seeded: rank r maps to pool[perm[r]].
    let mut perm: Vec<usize> = (0..pool.len()).collect();
    perm.shuffle(&mut rng_for(seed, 2));
    let streams = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = rng_for(seed, 10 + c as u64);
            (0..size.stream_len)
                .map(|_| {
                    let q = perm[zipf.sample(&mut rng)];
                    RankReq {
                        question: q,
                        answers: pool[q].answers.clone(),
                    }
                })
                .collect()
        })
        .collect();
    ReadPlan { pool, streams }
}

/// `read_miss`: uniform over the pool, each request with a fresh
/// 10–20-answer subset of the answer pool, so nearly every request
/// misses the cache (it keeps one ranking per query and answer list).
pub fn read_miss(ds: &Dataset, size: &Size, seed: u64) -> ReadPlan {
    let pool = pick_pool(ds, size, seed);
    let streams = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = rng_for(seed, 20 + c as u64);
            (0..size.stream_len)
                .map(|_| {
                    let q = rng.gen_range(0..pool.len());
                    let n = rng.gen_range(10..=20usize).min(ds.answer_pool.len());
                    let mut answers: Vec<u32> = ds
                        .answer_pool
                        .choose_multiple(&mut rng, n)
                        .copied()
                        .collect();
                    answers.sort_unstable();
                    RankReq {
                        question: q,
                        answers,
                    }
                })
                .collect()
        })
        .collect();
    ReadPlan { pool, streams }
}

/// Number of triggers a `vote_rounds` run plans for `seconds`. Fixed
/// by the arguments, never by how fast the machine is, so the writer
/// always optimizes the same batches.
pub fn trigger_count(size: &Size, seconds: f64) -> usize {
    ((seconds * size.triggers_per_s).ceil() as usize).max(2)
}

/// `vote_rounds`: the writer sends the seed-ordered votes in batches of
/// `size.batch`, each followed by one split-merge `/optimize`; the
/// reader ranks the voted questions, a fixed number per trigger, at a
/// fixed arrival rate.
pub fn vote_rounds(ds: &Dataset, size: &Size, seed: u64, seconds: f64) -> VotePlan {
    let mut rng = rng_for(seed, 3);
    let order = shuffled_questions(ds, &mut rng);
    let triggers_n = trigger_count(size, seconds);
    let needed = triggers_n * size.batch;
    // Cycle through the seed order when a long run needs more votes than
    // the dataset has; a repeated question is voted on again.
    let votes: Vec<Vote> = (0..needed)
        .map(|i| ds.votes[order[i % order.len()]].clone())
        .collect();
    let triggers: Vec<Vec<Vote>> = votes.chunks(size.batch).map(|c| c.to_vec()).collect();
    let mut pool: Vec<Question> = Vec::new();
    for v in &votes {
        if !pool.iter().any(|q| q.query == v.query.0) {
            pool.push(Question {
                query: v.query.0,
                answers: v.answers.iter().map(|a| a.0).collect(),
            });
        }
    }
    let reads_n = triggers_n * size.reads_per_trigger;
    let mut rng = rng_for(seed, 30);
    let reads = (0..reads_n)
        .map(|_| {
            let q = rng.gen_range(0..pool.len());
            RankReq {
                question: q,
                answers: pool[q].answers.clone(),
            }
        })
        .collect();
    VotePlan {
        pool,
        triggers,
        reads,
        reads_per_trigger: size.reads_per_trigger,
        reader_rps: size.reader_rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plans_other_seed_other_plans() {
        let size = Size::TINY;
        let ds = dataset(&size);
        assert!(ds.questions.len() >= size.pool, "tiny dataset too small");
        assert_eq!(read_hot(&ds, &size, 5), read_hot(&ds, &size, 5));
        assert_eq!(read_miss(&ds, &size, 5), read_miss(&ds, &size, 5));
        assert_eq!(
            vote_rounds(&ds, &size, 5, 2.0),
            vote_rounds(&ds, &size, 5, 2.0)
        );
        assert_ne!(read_hot(&ds, &size, 5), read_hot(&ds, &size, 6));
        assert_ne!(read_miss(&ds, &size, 5), read_miss(&ds, &size, 6));
        assert_ne!(
            vote_rounds(&ds, &size, 5, 2.0).triggers,
            vote_rounds(&ds, &size, 6, 2.0).triggers
        );
    }

    #[test]
    fn dataset_is_fixed() {
        let a = dataset(&Size::TINY);
        let b = dataset(&Size::TINY);
        assert_eq!(a.questions, b.questions);
        assert_eq!(
            kg_graph::io::weights_crc(&a.graph),
            kg_graph::io::weights_crc(&b.graph)
        );
    }

    #[test]
    fn trigger_points_depend_only_on_arguments() {
        let size = Size::TINY;
        let ds = dataset(&size);
        let plan = vote_rounds(&ds, &size, 9, 3.0);
        assert_eq!(plan.triggers.len(), trigger_count(&size, 3.0));
        assert!(plan.triggers.iter().all(|t| t.len() == size.batch));
        assert_eq!(
            plan.reads.len(),
            plan.triggers.len() * size.reads_per_trigger
        );
    }

    #[test]
    fn read_miss_lists_are_fresh_subsets() {
        let size = Size::TINY;
        let ds = dataset(&size);
        let plan = read_miss(&ds, &size, 1);
        for req in &plan.streams[0] {
            assert!(
                (10..=20).contains(&req.answers.len()) || req.answers.len() == ds.answer_pool.len()
            );
            assert!(
                req.answers.windows(2).all(|w| w[0] < w[1]),
                "distinct, sorted"
            );
        }
    }
}
