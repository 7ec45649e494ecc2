//! Application sequences for online-adaptation experiments.
//!
//! Figure 3 of the paper adapts an offline-trained policy while running a
//! *sequence* of applications from the Cortex and PARSEC suites back to back.
//! [`ApplicationSequence`] concatenates benchmarks and exposes the resulting
//! snippet stream together with per-snippet provenance, so that experiments
//! can report accuracy/energy both over time and per application.

use serde::Serialize;

use crate::snippet::SnippetProfile;
use crate::suites::{Benchmark, SuiteKind};

/// A snippet in a sequence, annotated with which application it came from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SequencedSnippet {
    /// Index of the snippet within the whole sequence.
    pub index: usize,
    /// Name of the application the snippet belongs to.
    pub benchmark: String,
    /// Suite of the application.
    pub suite: SuiteKind,
    /// The snippet profile itself.
    pub profile: SnippetProfile,
}

/// An ordered concatenation of benchmarks executed back to back.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ApplicationSequence {
    snippets: Vec<SequencedSnippet>,
    benchmarks: Vec<String>,
}

impl ApplicationSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sequence from a list of benchmarks, preserving order.
    pub fn from_benchmarks<'a, I>(benchmarks: I) -> Self
    where
        I: IntoIterator<Item = &'a Benchmark>,
    {
        let mut seq = Self::new();
        for b in benchmarks {
            seq.push_benchmark(b);
        }
        seq
    }

    /// Appends all snippets of `benchmark` to the end of the sequence.
    pub fn push_benchmark(&mut self, benchmark: &Benchmark) {
        self.benchmarks.push(benchmark.name().to_owned());
        for profile in benchmark.snippets() {
            self.snippets.push(SequencedSnippet {
                index: self.snippets.len(),
                benchmark: benchmark.name().to_owned(),
                suite: benchmark.suite(),
                profile: profile.clone(),
            });
        }
    }

    /// The snippet stream in execution order.
    pub fn snippets(&self) -> &[SequencedSnippet] {
        &self.snippets
    }

    /// Number of snippets in the sequence.
    pub fn len(&self) -> usize {
        self.snippets.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.snippets.is_empty()
    }

    /// Names of the benchmarks in the order they appear.
    pub fn benchmark_names(&self) -> &[String] {
        &self.benchmarks
    }

    /// Iterates over the snippets that belong to the named benchmark.
    pub fn snippets_of(&self, benchmark: &str) -> impl Iterator<Item = &SequencedSnippet> + '_ {
        let name = benchmark.to_owned();
        self.snippets.iter().filter(move |s| s.benchmark == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{BenchmarkSuite, SuiteKind};

    #[test]
    fn concatenates_in_order_with_provenance() {
        let cortex = BenchmarkSuite::generate(SuiteKind::Cortex, 11);
        let parsec = BenchmarkSuite::generate(SuiteKind::Parsec, 11);
        let seq = ApplicationSequence::from_benchmarks(
            cortex.benchmarks().iter().chain(parsec.benchmarks().iter()),
        );
        assert_eq!(
            seq.benchmark_names().len(),
            cortex.benchmarks().len() + parsec.benchmarks().len()
        );
        assert_eq!(seq.len(), cortex.iter_snippets().count() + parsec.iter_snippets().count());
        // Indices are consecutive.
        for (i, s) in seq.snippets().iter().enumerate() {
            assert_eq!(s.index, i);
        }
        // The first snippet comes from the first cortex benchmark.
        assert_eq!(seq.snippets()[0].benchmark, cortex.benchmarks()[0].name());
        assert_eq!(seq.snippets()[0].suite, SuiteKind::Cortex);
    }

    #[test]
    fn snippets_of_filters_by_benchmark() {
        let parsec = BenchmarkSuite::generate(SuiteKind::Parsec, 5);
        let seq = ApplicationSequence::from_benchmarks(parsec.benchmarks());
        let b0 = parsec.benchmarks()[0].name();
        assert_eq!(seq.snippets_of(b0).count(), parsec.benchmarks()[0].snippets().len());
        assert_eq!(seq.snippets_of("does-not-exist").count(), 0);
    }

    #[test]
    fn empty_sequence_behaves() {
        let seq = ApplicationSequence::new();
        assert!(seq.is_empty());
        assert_eq!(seq.len(), 0);
    }
}
