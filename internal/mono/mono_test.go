package mono

import (
	"testing"
	"time"
)

func TestNowIsMonotonicAgainstTimeNow(t *testing.T) {
	a := time.Now()
	b := Now()
	time.Sleep(2 * time.Millisecond)
	c := Now()
	d := time.Now()
	if b.Before(a) || c.Before(b) || d.Before(c) {
		t.Fatalf("instants out of order: %v %v %v %v", a, b, c, d)
	}
	if got := c.Sub(b); got < 2*time.Millisecond || got > d.Sub(a) {
		t.Fatalf("Now().Sub over a 2ms sleep = %v, bracketed by time.Now at %v", got, d.Sub(a))
	}
	if skew := b.Sub(a); skew < 0 || skew > time.Second {
		t.Fatalf("Now is %v after time.Now", skew)
	}
	if w := b.Round(0); w.Before(epoch.Round(0)) {
		t.Fatalf("wall-clock part %v precedes the epoch %v", w, epoch)
	}
}
