package core

import (
	"fmt"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/schema"
	"rtic/internal/tuple"
)

// V1Snapshot is the state a version-1 snapshot holds, as package snapv1
// decodes it: the field names are the ones its gob payload carries.
// Version 1 wrote every once/since node as if it kept a table of its own
// — the entries its window still held, with their timestamps — and
// neither a family's live entries nor its anchor log nor any answer.
type V1Snapshot struct {
	Version     int
	Constraints []struct{ Name, Source string }
	Index       int
	Now         uint64
	Started     bool
	Relations   []struct {
		Name string
		Rows []tuple.Tuple
	}
	Nodes []V1Node
}

// V1Node is one auxiliary node of a version-1 snapshot.
type V1Node struct {
	Kind       string // "prev" or "since"
	Formula    string // diagnostic only
	Has        bool
	StoredTime uint64
	Rows       []tuple.Tuple // prev: stored enumeration
	Entries    []struct {
		Row   tuple.Tuple
		Times []uint64
	}
}

// FromV1 builds the checker a version-1 snapshot describes over s. A
// family's table is the union of what its members wrote, an entry's
// anchor the newest any of them wrote. The families come back unprimed
// and every denial unchecked: the first Step primes and checks them, as
// it does a new checker's.
func FromV1(s *schema.Schema, snap *V1Snapshot) (*Checker, error) {
	if snap.Version != 1 {
		return nil, fmt.Errorf("core: version-1 snapshot claims version %d", snap.Version)
	}
	c := New(s)
	for _, sc := range snap.Constraints {
		con, err := check.Parse(sc.Name, sc.Source, s)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot constraint %s: %w", sc.Name, err)
		}
		if err := c.AddConstraint(con); err != nil {
			return nil, err
		}
	}
	if len(c.nodes) != len(snap.Nodes) {
		return nil, fmt.Errorf("core: snapshot has %d auxiliary nodes, compiled constraints need %d",
			len(snap.Nodes), len(c.nodes))
	}
	for _, sr := range snap.Relations {
		rel, err := c.cur.Relation(sr.Name)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot relation %q not in schema: %w", sr.Name, err)
		}
		for _, row := range sr.Rows {
			if _, err := rel.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	for i, sn := range snap.Nodes {
		if err := fromV1Node(c.nodes[i], sn, snap.Now); err != nil {
			return nil, err
		}
	}
	c.index, c.now, c.started = snap.Index, snap.Now, snap.Started
	return c, nil
}

func fromV1Node(node auxNode, sn V1Node, now uint64) error {
	switch n := node.(type) {
	case *prevNode:
		if sn.Kind != "prev" {
			return fmt.Errorf("core: snapshot node kind %q, compiled node is prev (%s)", sn.Kind, n.n.String())
		}
		if sn.StoredTime > now {
			return fmt.Errorf("core: snapshot prev %s stored at %d, after the clock %d", n.n.String(), sn.StoredTime, now)
		}
		n.has = sn.Has
		n.storedTime = sn.StoredTime
		if sn.Has {
			b := fol.NewBindings(n.fvars)
			for _, row := range sn.Rows {
				if len(row) != len(n.fvars) || b.AddRow(row) != nil {
					return fmt.Errorf("core: snapshot prev rows have wrong arity for %s", n.n.String())
				}
			}
			n.stored = b
		}
		return nil
	case *sinceNode:
		if sn.Kind != "since" {
			return fmt.Errorf("core: snapshot node kind %q, compiled node is since (%s)", sn.Kind, n.node.String())
		}
		// The members of a family each wrote the part of one table their
		// window held; the table is their union, an entry's anchor the
		// newest any of them wrote. An epoch per node tells an entry another
		// member brought from one this node repeats.
		f := n.fam
		f.epoch++
		for _, e := range sn.Entries {
			if len(e.Row) != len(f.vars) {
				return fmt.Errorf("core: snapshot entry arity %d for node %s (want %d)",
					len(e.Row), n.node.String(), len(f.vars))
			}
			// A snapshot written before the newest-anchor rule holds every
			// in-window timestamp; keep what this family's rule keeps.
			times := e.Times
			if len(times) > 1 && f.newest {
				times = times[len(times)-1:]
			} else if len(times) > 1 && n.iv.Unbounded {
				times = times[:1]
			}
			for i, tm := range times {
				if tm > now || i > 0 && tm <= times[i-1] {
					return fmt.Errorf("core: snapshot entry %s of node %s: timestamps %v at clock %d", e.Row.Key(), n.node.String(), times, now)
				}
			}
			if len(times) == 0 {
				return fmt.Errorf("core: snapshot entry %s of node %s holds no timestamp", e.Row.Key(), n.node.String())
			}
			have := f.find(e.Row)
			switch {
			case have == nil:
				var err error
				if have, err = f.take(e.Row); err != nil {
					return err
				}
				have.times, have.liveIx, have.keep = append(have.times, times...), -1, true
				f.insert(have)
			case have.seen == f.epoch || !f.newest:
				return fmt.Errorf("core: snapshot repeats entry %s of node %s", e.Row.Key(), n.node.String())
			case len(times) == 1 && len(have.times) == 1 && times[0] > have.times[0]:
				have.times[0] = times[0]
			}
			have.seen = f.epoch
		}
		return nil
	default:
		return fmt.Errorf("core: cannot restore node %T", node)
	}
}
