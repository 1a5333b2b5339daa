// Package eleos is a from-scratch reproduction of "Programming an SSD
// Controller to Support Batched Writes for Variable-Size Pages" (Do, Luo,
// Lomet — ICDE 2021).
//
// The ELEOS controller itself lives in internal/core, over the flash media
// simulator in internal/flash; the baselines (a conventional block FTL and
// a host-based log-structured store), the applications (Bw-tree key-value
// store, compressed B+-tree with a TPC-C workload), and the experiment
// harness live in the other internal packages. `benchrunner <experiment>
// [flags]` in cmd/benchrunner regenerates every table and figure of the
// paper's evaluation in virtual time; wall-clock throughput and latency
// are measured by the benchmark in bench/ (BENCHMARK.json) and by nothing
// else. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured results.
package eleos
