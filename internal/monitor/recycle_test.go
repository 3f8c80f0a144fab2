package monitor

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// TestRecyclingKeepsHistory holds what the monitor reports about past
// commits to the text it had, while core hands the storage behind those
// reports to later rows: the engine's violations point into answer sets
// that change in place, and a deleted row's slot in a relation, an answer
// or a family's table is the next row's. It commits violations, deletes
// the rows behind them, then churns: each round fires and hires as many
// new employees as there were violators, so every freed hire, fire and
// answer slot is taken again, and the rounds outlast the once[0,365]
// window, so the first fires' entries are pruned and theirs are taken
// too. Recent, the "recent N" reply and the values a subscriber received
// must then read byte for byte as they did before the churn.
func TestRecyclingKeepsHistory(t *testing.T) {
	const violators, rounds = 8, 12 // 8 + 12*8 violations fit the ring of 128
	m, _ := hrMonitor(t)
	sub, cancel := m.Subscribe(violators)
	defer cancel()

	commit := func(at uint64, rel string, insert bool, from int64) {
		t.Helper()
		tx := storage.NewTransaction()
		for e := from; e < from+violators; e++ {
			if insert {
				tx.Insert(rel, tuple.Ints(e))
			} else {
				tx.Delete(rel, tuple.Ints(e)).Delete("fire", tuple.Ints(e))
			}
		}
		if _, err := m.Apply(at, tx); err != nil {
			t.Fatalf("commit at %d: %v", at, err)
		}
	}
	texts := func(vs []check.Violation) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.String()
		}
		return out
	}
	recentReply := func(n int) string {
		conn := &scriptConn{script: fmt.Sprintf("recent %d\n", n)}
		NewServer(m).handle(conn)
		return conn.output()
	}
	drain := func() []check.Violation {
		var got []check.Violation
		for range violators {
			got = append(got, <-sub)
		}
		return got
	}

	commit(10, "fire", true, 1)
	commit(20, "hire", true, 1)
	received := drain()
	wantRecent, wantReceived := texts(m.Recent(violators)), texts(received)
	wantReply := recentReply(violators)
	if len(wantRecent) != violators || !strings.Contains(wantReply, "no_quick_rehire violated at state 1 (time 20) by e=8\n") {
		t.Fatalf("before the churn: Recent %q, reply\n%s", wantRecent, wantReply)
	}

	commit(30, "hire", false, 1)
	at := uint64(40)
	for r := range int64(rounds) {
		from := 100 + r*violators
		commit(at, "fire", true, from)
		commit(at+1, "hire", true, from)
		commit(at+2, "hire", false, from)
		drain()
		at += 40
	}
	if at < 30+365 {
		t.Fatalf("the churn ends at %d, inside the window of the first fires", at)
	}

	all := m.Recent(0)
	if got := texts(all[:violators]); len(all) != violators*(1+rounds) || !slices.Equal(got, wantRecent) {
		t.Errorf("Recent after the churn begins\n%q\nwant, as before it,\n%q", got, wantRecent)
	}
	if got := texts(received); !slices.Equal(got, wantReceived) {
		t.Errorf("subscriber values after the churn read\n%q\nwant, as received,\n%q", got, wantReceived)
	}
	// The reply lists the ring oldest first: its first lines are the
	// reply the first violators had before the churn.
	head := strings.TrimSuffix(wantReply, fmt.Sprintf("ok %d\n", violators))
	if got := recentReply(len(all)); !strings.HasPrefix(got, head) {
		t.Errorf("recent reply after the churn\n%s\ndoes not begin with the reply before it\n%s", got, head)
	}
}
