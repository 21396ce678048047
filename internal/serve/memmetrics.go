package serve

import (
	"fmt"
	"io"
	"runtime/metrics"
)

// memSeries maps runtime/metrics samples onto the borgesd_mem_*
// Prometheus series surfaced by /metrics. These are the gauges that
// make the mega-scale memory model observable in production: how much
// heap the process actually holds (a loaded snapshot keeps its index
// and clusters, not its artifact's response sections), how much
// address space the runtime has mapped, how hard the collector is
// working, and how far the heap goal sits above the live heap.
var memSeries = []struct {
	sample string
	name   string
	kind   string // "gauge" or "counter"
	help   string
}{
	{"/memory/classes/heap/objects:bytes", "borgesd_mem_heap_objects_bytes", "gauge",
		"Bytes occupied by live heap objects plus unswept garbage."},
	{"/memory/classes/total:bytes", "borgesd_mem_runtime_total_bytes", "gauge",
		"Total bytes of memory mapped by the Go runtime."},
	{"/memory/classes/heap/released:bytes", "borgesd_mem_heap_released_bytes", "gauge",
		"Heap bytes returned to the operating system."},
	{"/gc/heap/goal:bytes", "borgesd_mem_gc_goal_bytes", "gauge",
		"Heap size target of the next garbage collection cycle."},
	{"/gc/heap/live:bytes", "borgesd_mem_gc_live_bytes", "gauge",
		"Heap bytes the last garbage collection cycle marked live; the goal is about twice this."},
	{"/gc/cycles/total:gc-cycles", "borgesd_mem_gc_cycles_total", "counter",
		"Completed garbage collection cycles."},
	{"/gc/cycles/forced:gc-cycles", "borgesd_mem_gc_forced_cycles_total", "counter",
		"Completed garbage collection cycles forced by the application; borgesd starts one after each snapshot swap."},
}

// writeMemMetrics emits the borgesd_mem_* series. Reading a handful of
// runtime/metrics samples is cheap and lock-free; /metrics is not a
// hot path, so the per-call sample slice is fine.
func writeMemMetrics(w io.Writer) {
	samples := make([]metrics.Sample, len(memSeries))
	for i := range memSeries {
		samples[i].Name = memSeries[i].sample
	}
	metrics.Read(samples)
	for i, s := range memSeries {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind)
		fmt.Fprintf(w, "%s %d\n", s.name, samples[i].Value.Uint64())
	}
}
