// Package mono reads the clock for instants that are only ever
// subtracted from one another: a commit's start and end, the ends of its
// phases, a lock wait. time.Now reads both the wall clock and the
// monotonic clock, but a difference of two instants that both carry a
// monotonic reading uses the monotonic one alone, so the wall-clock read
// is wasted on them. Now reads the monotonic clock only, against one
// wall-clock reading the process takes at start.
package mono

import "time"

// epoch is the process's one wall-clock reading: every instant Now
// returns is epoch plus the monotonic time elapsed since.
var epoch = time.Now()

// Now returns the current instant, reading the monotonic clock only. Its
// differences with other instants that carry a monotonic reading (any
// from Now or time.Now) are exact; its wall-clock part is epoch's plus
// the elapsed time, so it drifts from time.Now's when the system clock
// is set while the process runs.
//
//rtic:noalloc
func Now() time.Time { return epoch.Add(time.Since(epoch)) }
