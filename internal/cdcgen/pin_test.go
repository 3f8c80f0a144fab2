package cdcgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/workload"
)

// gatedFeed is the feed shape every benchmark workload shares (burst
// trains of 8 every 20 commits, late arrivals displaced by up to 3
// commits, 2% of flows planned to violate) at one workload's sensor
// universe: 24 for cdc-stream and shard-recover, 1,024 for policy-wide.
func gatedFeed(sensors int, seed int64, steps int) cdcgen.Config {
	return cdcgen.Config{
		Steps: steps, Seed: seed, Sensors: sensors,
		BurstLen: 8, BurstEvery: 20,
		MaxReorder:    3,
		ViolationRate: 0.02,
	}
}

// feedPin is what one gated feed must reproduce byte for byte.
type feedPin struct {
	cfg     cdcgen.Config
	render  string // SHA-256 of Render
	meta    string // SHA-256 of metaDigest
	twice   int    // sensors whose reading was captured more than once
	planned int    // Meta.PlannedViolations, readable beside the digest
}

// feedPins hold the generator to the feeds the benchmark replays. The
// 24-sensor feeds capture every sensor more than once within the first
// ~850 commits. The 1,024-sensor feeds run as long as policy-wide's
// 30 s feed; at Zipf skew 1.5 the coldest sensors are drawn about once
// in 10⁵ draws, so capturing every one twice would take 551,405
// (seed 1) and 621,915 (seed 7) commits, and twice counts how much of
// the universe the pinned length re-captures.
var feedPins = []feedPin{
	{gatedFeed(24, 1, 20000), "e7cd3155f42c7ddfe1644ec6d518102d3a66e01e4bc0d3efa98b1f078c88c400", "97c8c415f305035b575612700b15ff47d5088e72cc0c1ae8a679d86eeb7cc318", 24, 290},
	{gatedFeed(24, 7, 20000), "f4f08c195fbfc032757a2e9e5d7ad07c5b451cc8851063a5c49112257271f705", "bc9121b0d7226b56584b24e687bb8e9a8a3fb0ef52896eac5fe306619717c4e1", 24, 296},
	{gatedFeed(1024, 1, 32834), "b09f223e6520eed24c4be294fe3da9b8a5a12c995b67d0eceb82c3e4d226efff", "171320877c375b1a2936d79359c8ff5494069d584e5f94b238fdc5fcc30b68ce", 492, 482},
	{gatedFeed(1024, 7, 32834), "b55a20d24bbfc5b7773b6936eedd0431e3d46cf44c2eff90318c6bb252899f57", "d5727585062fd716b8193ad601d728fdb0230efa3ff0cfb88c64b29921ca750f", 473, 498},
	// cdc-stream's whole 30 s feed at the default seed.
	{gatedFeed(24, 1, 129086), "1a986fdfec831e77ef29b814f5aa2ebd65e8d43184463f6a558feb0597b1be6c", "595db1cee4df5f82516e8e92c4b3db4a50e776b9764ad2005a46c2f2ab3b995f", 24, 1840},
}

func TestGatedFeedsPinned(t *testing.T) {
	for _, p := range feedPins {
		h, meta := cdcgen.Generate(p.cfg)
		sum := sha256.Sum256([]byte(cdcgen.Render(h)))
		msum := sha256.Sum256(metaDigest(meta))
		got := feedPin{p.cfg, hex.EncodeToString(sum[:]), hex.EncodeToString(msum[:]), capturedTwice(h), meta.PlannedViolations}
		if got != p {
			t.Errorf("sensors=%d seed=%d steps=%d:\n  got  %q %q twice=%d planned=%d\n  want %q %q twice=%d planned=%d",
				p.cfg.Sensors, p.cfg.Seed, p.cfg.Steps,
				got.render, got.meta, got.twice, got.planned,
				p.render, p.meta, p.twice, p.planned)
		}
	}
}

// metaDigest encodes every Meta field in a fixed order: the per-commit
// burst flags and kinds, the displacement counts, the key-draw
// histogram by ascending sensor and the planned violations.
func metaDigest(m cdcgen.Meta) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(m.Burst)))
	for _, burst := range m.Burst {
		if burst {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Kinds)))
	for _, k := range m.Kinds {
		b = append(b, k...)
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(m.Displaced))
	b = binary.AppendVarint(b, int64(m.MaxDisplacement))
	keys := make([]int64, 0, len(m.KeyDraws))
	for k := range m.KeyDraws {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendVarint(b, k)
		b = binary.AppendVarint(b, int64(m.KeyDraws[k]))
	}
	return binary.AppendVarint(b, int64(m.PlannedViolations))
}

// capturedTwice counts the sensors whose reading row was inserted more
// than once: the re-captures that move a sensor to the newest end of
// the generator's capture order.
func capturedTwice(h workload.History) int {
	captures := map[int64]int{}
	for _, st := range h.Steps {
		for _, op := range st.Tx.Ops() {
			if op.Rel == "reading" && op.Insert {
				captures[op.Tuple[0].AsInt()]++
			}
		}
	}
	n := 0
	for _, c := range captures {
		if c > 1 {
			n++
		}
	}
	return n
}
