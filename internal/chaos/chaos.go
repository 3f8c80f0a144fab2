// Package chaos is the crash enumerator (Sweep): it drives a short
// durable trace over a vfs.FaultFS once fault-free and once per fault
// outcome at each op, a second fault inside the re-arm rotation that
// follows a latched journal, cuts each run by a power cut at every
// later op, and recovers every disk a cut may leave. The contract each
// disk is held to: no commit acknowledged while durability reported ok
// is missing after recovery, and the recovered state is identical to a
// clean run of the same trace prefix.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"rtic/internal/monitor"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// hrHistory is the default trace, n hire/fire commits: rehiring an
// employee fired within the window trips no_quick_rehire, so the trace
// exercises both clean and violating commits.
func hrHistory(n int) workload.History {
	h := workload.History{
		Schema:      schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild(),
		Constraints: []workload.ConstraintSpec{{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"}},
	}
	for i := 0; i < n; i++ {
		e := int64(i % 5)
		tx := storage.NewTransaction()
		if i%3 == 0 {
			tx.Insert("fire", tuple.Ints(e))
		} else {
			tx.Delete("fire", tuple.Ints(e)).Insert("hire", tuple.Ints(e))
		}
		h.Steps = append(h.Steps, workload.Step{Time: uint64((i + 1) * 10), Tx: tx})
	}
	return h
}

func newMonitor(sch *schema.Schema, cons []workload.ConstraintSpec, shards int) (*monitor.Monitor, error) {
	var opts []monitor.Option
	if shards > 1 {
		opts = append(opts, monitor.WithShards(shards))
	}
	m, err := monitor.New(sch, cons, opts...)
	if err != nil {
		return nil, err
	}
	m.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	return m, nil
}

// openJournals opens the shards journals under dir (monitor.JournalPaths
// of dir/state.wal) with opts.
func openJournals(dir string, shards int, opts ...wal.Option) ([]*wal.Log, error) {
	paths := monitor.JournalPaths(filepath.Join(dir, "state.wal"), shards)
	logs := make([]*wal.Log, len(paths))
	for i, p := range paths {
		var err error
		if logs[i], err = wal.Open(p, opts...); err != nil {
			closeAll(logs[:i])
			return nil, fmt.Errorf("opening journal %d: %w", i, err)
		}
	}
	return logs, nil
}

func closeAll(logs []*wal.Log) {
	for _, l := range logs {
		// Only the file handles are at stake: what the contract checks
		// was read before.
		l.Close()
	}
}

// openDir builds what a restarted process builds over dir on the real
// filesystem, ready to Recover: the monitor restored from dir's
// checkpoint (or fresh without one) and the durability manager over
// its journals, opened with opts. cons builds the fresh monitor; a
// checkpoint carries its own.
func openDir(sch *schema.Schema, cons []workload.ConstraintSpec, dir string, shards int, opts ...wal.Option) (*monitor.Monitor, *monitor.Durable, []*wal.Log, error) {
	snapPath := filepath.Join(dir, "state.snap")
	var m *monitor.Monitor
	if sf, err := os.Open(snapPath); err == nil {
		m, err = monitor.RestoreObserved(sch, nil, sf, &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())},
			monitor.WithShards(shards))
		sf.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("restoring checkpoint: %w", err)
		}
	} else if m, err = newMonitor(sch, cons, shards); err != nil {
		return nil, nil, nil, err
	}
	logs, err := openJournals(dir, shards, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := monitor.NewDurableLogs(m, logs, snapPath)
	if err != nil {
		closeAll(logs)
		return nil, nil, nil, err
	}
	return m, d, logs, nil
}

// reference is a monitor fed steps on a healthy disk.
func reference(sch *schema.Schema, cons []workload.ConstraintSpec, shards int, steps []workload.Step) (*monitor.Monitor, error) {
	ref, err := newMonitor(sch, cons, shards)
	if err != nil {
		return nil, err
	}
	for _, st := range steps {
		if _, err := ref.Apply(st.Time, st.Tx); err != nil {
			return nil, fmt.Errorf("reference replay at t=%d: %w", st.Time, err)
		}
	}
	return ref, nil
}

// sameState holds a recovered monitor to the reference fed the trace
// prefix it recovered: nothing half-applied, nothing extra.
func sameState(m, ref *monitor.Monitor) error {
	if m.Now() != ref.Now() {
		return fmt.Errorf("recovered t=%d is not a trace prefix boundary (reference t=%d)", m.Now(), ref.Now())
	}
	if m.Len() != ref.Len() {
		return fmt.Errorf("recovered %d states, reference has %d for the same prefix", m.Len(), ref.Len())
	}
	if got, want := m.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("recovered aux state diverges: %+v vs %+v", got, want)
	}
	return nil
}

// sameStep commits st to both monitors and compares the violations.
// Committing a probe past both clocks is a behavioral, not just
// structural, equivalence check: which violations it raises depends on
// the full history.
func sameStep(m, ref *monitor.Monitor, st workload.Step) error {
	pv, err := m.Apply(st.Time, st.Tx)
	if err != nil {
		return fmt.Errorf("commit at t=%d on the recovered monitor: %w", st.Time, err)
	}
	rv, err := ref.Apply(st.Time, st.Tx)
	if err != nil {
		return fmt.Errorf("commit at t=%d on the reference monitor: %w", st.Time, err)
	}
	pk := make([]string, 0, len(pv))
	for _, v := range pv {
		pk = append(pk, v.String())
	}
	rk := make([]string, 0, len(rv))
	for _, v := range rv {
		rk = append(rk, v.String())
	}
	sort.Strings(pk)
	sort.Strings(rk)
	if !reflect.DeepEqual(pk, rk) {
		return fmt.Errorf("violations at t=%d diverge: %v vs %v", st.Time, pk, rk)
	}
	return nil
}
