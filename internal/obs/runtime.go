package obs

import (
	"runtime/metrics"
	"sync"
)

// RegisterRuntime adds to r two counters the Go runtime keeps, read at
// every exposition: heap allocations since the process started, tiny
// ones included (runtime/metrics "/gc/heap/allocs:objects" plus
// "/gc/heap/tiny/allocs:objects", which is runtime.MemStats.Mallocs),
// and completed GC cycles ("/gc/cycles/total:gc-cycles"). On a daemon
// whose steady state allocates nothing, both stop moving between scrapes
// while commits keep coming: an operator can check the claim on a live
// process.
func RegisterRuntime(r *Registry) {
	allocs := r.Counter("rtic_runtime_heap_allocs_objects_total",
		"Heap allocations the Go runtime has made since the process started, tiny ones included.")
	cycles := r.Counter("rtic_runtime_gc_cycles_total",
		"Garbage-collection cycles the Go runtime has completed since the process started.")
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	var mu sync.Mutex // two scrapes at once share samples
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collect = append(r.collect, func() {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(samples)
		allocs.v.Store(samples[0].Value.Uint64() + samples[1].Value.Uint64())
		cycles.v.Store(samples[2].Value.Uint64())
	})
}
