package vfs

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The crash model: a power cut loses whatever was never fsynced. Each
// file keeps its bytes as of its last successful Sync plus any prefix of
// the writes and truncations made since; each directory keeps its
// entries as of its last successful directory Sync plus any prefix of
// the creates, renames and removes made since. A torn write needs no
// case of its own: a ShortWrite already put a prefix on disk.

// change is what a counted op did to the disk; zero is nothing.
type change uint8

const (
	chCreate   change = iota + 1 // path now names the new file ino
	chWrite                      // data written to ino at off
	chTruncate                   // ino cut to off bytes
	chSyncFile                   // ino's bytes reached stable storage
	chSyncDir                    // the entries of directory path reached stable storage
	chRename                     // path moved to to (ino)
	chRemove                     // path unlinked
)

// rec is one counted op and, once it succeeded, what it changed.
type rec struct {
	op     Op
	path   string
	change change
	ino    int
	to     string
	off    int64
	data   []byte
}

// model is the FaultFS's record of the disk, guarded by FaultFS.mu.
type model struct {
	recs      []rec          // every counted op: recs[n-1] is op n
	names     map[string]int // the live namespace: path → file
	files     int            // files numbered so far
	base      map[int][]byte // bytes of the files that predate the FaultFS
	baseNames map[string]int // and their names, taken as synced
}

func newModel() model {
	return model{names: map[string]int{}, base: map[int][]byte{}, baseNames: map[string]int{}}
}

// note records what op n changed (caller holds mu).
func (f *FaultFS) note(n uint64, r rec) {
	r.op, r.path = f.recs[n-1].op, f.recs[n-1].path
	f.recs[n-1] = r
}

// create numbers the file op n created at path (caller holds mu).
func (f *FaultFS) create(n uint64, path string) int {
	ino := f.files
	f.files++
	f.names[path] = ino
	f.note(n, rec{change: chCreate, ino: ino})
	return ino
}

// known reports whether path names a regular file, taking the bytes of
// one the FaultFS has not seen yet as its synced state.
func (f *FaultFS) known(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.names[path]; ok {
		return true
	}
	st, err := f.inner.Stat(path)
	if err != nil || !st.Mode().IsRegular() {
		return false
	}
	r, err := f.inner.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	data, err := io.ReadAll(r)
	r.Close() //rtic:errok read-only handle
	if err != nil {
		return false
	}
	ino := f.files
	f.files++
	f.names[path], f.base[ino], f.baseNames[path] = ino, data, ino
	return true
}

// OpAt reports the class and path of counted op n (1-based).
func (f *FaultFS) OpAt(n uint64) (Op, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n == 0 || n > uint64(len(f.recs)) {
		return OpAny, ""
	}
	return f.recs[n-1].op, f.recs[n-1].path
}

// Image is one disk a power cut can leave under a directory: each
// file's bytes by its path relative to that directory.
type Image map[string][]byte

// Key is a canonical encoding of the image: equal keys, equal disks.
func (im Image) Key() string {
	paths := make([]string, 0, len(im))
	for p := range im {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b []byte
	for _, p := range paths {
		b = append(append(b, p...), 0)
		b = append(strconv.AppendInt(b, int64(len(im[p])), 10), 0)
		b = append(b, im[p]...)
	}
	return string(b)
}

// Write rebuilds the image under dir on the real filesystem.
func (im Image) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for p, data := range im {
		path := filepath.Join(dir, p)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fileState is one file at a cut: its synced bytes and the data ops
// since.
type fileState struct {
	synced []byte
	pend   []rec
}

// bytes returns the file with the first k pending ops applied.
func (s *fileState) bytes(k int) []byte {
	b := append([]byte(nil), s.synced...)
	for _, r := range s.pend[:k] {
		switch r.change {
		case chWrite:
			if end := r.off + int64(len(r.data)); end > int64(len(b)) {
				b = append(b, make([]byte, end-int64(len(b)))...)
			}
			copy(b[r.off:], r.data)
		case chTruncate:
			if r.off < int64(len(b)) {
				b = b[:r.off]
			} else {
				b = append(b, make([]byte, r.off-int64(len(b)))...)
			}
		}
	}
	return b
}

// dirState is one directory at a cut: its synced entries and the entry
// ops since.
type dirState struct {
	synced map[string]int
	pend   []rec
}

// entries returns the directory with the first k pending ops applied,
// added to into.
func (s *dirState) entries(dir string, k int, into map[string]int) {
	for p, ino := range s.synced {
		into[p] = ino
	}
	for _, r := range s.pend[:k] {
		switch r.change {
		case chCreate:
			into[r.path] = r.ino
		case chRemove:
			delete(into, r.path)
		case chRename:
			// A rename across directories is a remove in one and a
			// create in the other, each made durable by its own sync.
			if filepath.Dir(r.path) == dir {
				delete(into, r.path)
			}
			if filepath.Dir(r.to) == dir {
				into[r.to] = r.ino
			}
		}
	}
}

// Images returns every disk under root that a power cut just before op
// j (1-based: ops 1..j-1 ran, op j and later never did) may leave. The
// first keeps only what was synced and the last keeps every op; equal
// disks reached by different choices are all listed.
func (f *FaultFS) Images(root string, j uint64) []Image {
	f.mu.Lock()
	defer f.mu.Unlock()
	files := map[int]*fileState{}
	for ino, b := range f.base {
		files[ino] = &fileState{synced: b}
	}
	dirs := map[string]*dirState{}
	dirOf := func(path string) *dirState {
		d := filepath.Dir(path)
		if dirs[d] == nil {
			dirs[d] = &dirState{synced: map[string]int{}}
		}
		return dirs[d]
	}
	for p, ino := range f.baseNames {
		dirOf(p).synced[p] = ino
	}
	if j == 0 {
		j = 1
	}
	if n := uint64(len(f.recs)); j > n+1 {
		j = n + 1
	}
	for _, r := range f.recs[:j-1] {
		switch r.change {
		case chCreate:
			files[r.ino] = &fileState{}
			d := dirOf(r.path)
			d.pend = append(d.pend, r)
		case chWrite, chTruncate:
			files[r.ino].pend = append(files[r.ino].pend, r)
		case chSyncFile:
			s := files[r.ino]
			s.synced, s.pend = s.bytes(len(s.pend)), nil
		case chSyncDir:
			d := filepath.Clean(r.path)
			s := dirs[d]
			if s == nil {
				continue
			}
			synced := map[string]int{}
			s.entries(d, len(s.pend), synced)
			s.synced, s.pend = synced, nil
		case chRename:
			from, to := dirOf(r.path), dirOf(r.to)
			from.pend = append(from.pend, r)
			if to != from {
				to.pend = append(to.pend, r)
			}
		case chRemove:
			d := dirOf(r.path)
			d.pend = append(d.pend, r)
		}
	}

	dirNames := make([]string, 0, len(dirs))
	for d := range dirs {
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)
	dk, dlim := make([]int, len(dirNames)), make([]int, len(dirNames))
	for i, d := range dirNames {
		dlim[i] = len(dirs[d].pend)
	}
	var out []Image
	for {
		names := map[string]int{}
		for i, d := range dirNames {
			dirs[d].entries(d, dk[i], names)
		}
		var inos []int
		for _, ino := range names {
			inos = append(inos, ino)
		}
		sort.Ints(inos)
		inos = slices.Compact(inos)
		fk, flim := make([]int, len(inos)), make([]int, len(inos))
		at := make(map[int]int, len(inos))
		for i, ino := range inos {
			flim[i], at[ino] = len(files[ino].pend), i
		}
		for {
			im := Image{}
			for p, ino := range names {
				if rel, err := filepath.Rel(root, p); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
					im[rel] = files[ino].bytes(fk[at[ino]])
				}
			}
			out = append(out, im)
			if !next(fk, flim) {
				break
			}
		}
		if !next(dk, dlim) {
			return out
		}
	}
}

// next advances the odometer k, digit i running from 0 to lim[i], and
// reports false once it wraps back to all zeros.
func next(k, lim []int) bool {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] < lim[i] {
			k[i]++
			return true
		}
		k[i] = 0
	}
	return false
}
