// Package megascale holds the mega-scale memory benchmarks: peak-RSS
// and wall-clock measurements for streaming corpus generation,
// consolidation (a builder that merges each sibling set on arrival and
// keeps none), snapshot build, and binary-artifact cold start, at
// n=131072 and n=1M ASNs.
// The bench TestMain serializes every observation to
// BENCH_megascale.json (committed alongside this package), and the CI
// megascale-smoke job runs the bounded-memory assertions at a scaled-
// down n under the race detector.
package megascale
