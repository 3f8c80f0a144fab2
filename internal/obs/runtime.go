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
	rc := &runtimeCounters{
		allocs: r.Counter("rtic_runtime_heap_allocs_objects_total",
			"Heap allocations the Go runtime has made since the process started, tiny ones included."),
		cycles: r.Counter("rtic_runtime_gc_cycles_total",
			"Garbage-collection cycles the Go runtime has completed since the process started."),
		samples: [3]metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/tiny/allocs:objects"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
	r.mu.Lock()
	r.runtime = rc
	r.mu.Unlock()
}

// runtimeCounters mirrors the runtime's allocation and GC counts into
// two counters.
type runtimeCounters struct {
	allocs, cycles *Counter
	mu             sync.Mutex // two scrapes at once share samples
	samples        [3]metrics.Sample
}

// read stores the runtime's current counts in the counters.
//
//rtic:noalloc
func (rc *runtimeCounters) read() {
	rc.mu.Lock()
	metrics.Read(rc.samples[:])                                           //rtic:allocok fills the caller's samples; a scalar sample allocates nothing
	allocs := rc.samples[0].Value.Uint64() + rc.samples[1].Value.Uint64() //rtic:allocok reads a sample's scalar in place
	rc.allocs.v.Store(allocs)
	rc.cycles.v.Store(rc.samples[2].Value.Uint64()) //rtic:allocok reads a sample's scalar in place
	rc.mu.Unlock()
}
