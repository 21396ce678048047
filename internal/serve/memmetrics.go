package serve

import (
	"runtime/metrics"

	"github.com/nu-aqualab/borges/internal/obs"
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

// registerMemMetrics declares the borgesd_mem_* families. Each scrape
// reads its sample from runtime/metrics, which is cheap and lock-free;
// a sample the runtime does not report prints nothing.
func registerMemMetrics(reg *obs.Registry) {
	for _, s := range memSeries {
		reg.Add(s.name, obs.Kind(s.kind), s.help, func(emit obs.Emit) {
			sample := []metrics.Sample{{Name: s.sample}}
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				emit(float64(sample[0].Value.Uint64()))
			}
		})
	}
}
