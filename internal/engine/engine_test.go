package engine

import (
	"fmt"
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/storage"
)

func TestSerialBatch(t *testing.T) {
	var times []uint64
	step := func(tm uint64, tx *storage.Transaction) ([]check.Violation, error) {
		times = append(times, tm)
		if tm == 30 {
			return nil, fmt.Errorf("boom")
		}
		return []check.Violation{{Constraint: "c", Time: tm}}, nil
	}
	steps := []Step{
		{Time: 10, Tx: storage.NewTransaction()},
		{Time: 20, Tx: storage.NewTransaction()},
		{Time: 30, Tx: storage.NewTransaction()},
		{Time: 40, Tx: storage.NewTransaction()},
	}
	out, err := SerialBatch(step, steps)
	if err == nil || !strings.Contains(err.Error(), "batch step 2 (t=30)") {
		t.Fatalf("err = %v, want batch step 2 failure", err)
	}
	if len(out) != 2 {
		t.Fatalf("prefix violations = %d slices, want 2", len(out))
	}
	if len(times) != 3 {
		t.Fatalf("step called %d times, want 3 (stops at failure)", len(times))
	}

	times = nil
	out, err = SerialBatch(step, steps[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0].Time != 10 || out[1][0].Time != 20 {
		t.Fatalf("out = %v", out)
	}
}
