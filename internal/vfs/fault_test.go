package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
)

func openAppend(t *testing.T, fsys FS, path string) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFaultENOSPCAndHeal fires a disk-full error at exactly one write
// and verifies the op before and after it succeed — transient faults
// must not stick.
func TestFaultENOSPCAndHeal(t *testing.T) {
	ffs := NewFaultFS(OS, Injection{AtOp: 3, Op: OpWrite, Kind: ENOSPC})
	f := openAppend(t, ffs, filepath.Join(t.TempDir(), "x")) // op 1
	if _, err := f.Write([]byte("ok")); err != nil {         // op 2
		t.Fatal(err)
	}
	_, err := f.Write([]byte("full")) // op 3: fails
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if _, err := f.Write([]byte("healed")); err != nil { // op 4
		t.Fatalf("write after transient ENOSPC: %v", err)
	}
	fired := ffs.Fired()
	if len(fired) != 1 || fired[0].AtOp != 3 || fired[0].Kind != ENOSPC {
		t.Fatalf("fired = %+v", fired)
	}
}

// TestFaultShortWrite verifies a torn write accepts a strict prefix and
// reports no error — the caller's n != len(p) check must catch it.
func TestFaultShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	ffs := NewFaultFS(OS, Injection{AtOp: 2, Kind: ShortWrite})
	f := openAppend(t, ffs, path)
	n, err := f.Write([]byte("0123456789"))
	if err != nil {
		t.Fatalf("short write returned error %v", err)
	}
	if n <= 0 || n >= 10 {
		t.Fatalf("short write accepted %d of 10 bytes; want a strict prefix", n)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != n {
		t.Fatalf("file holds %d bytes, write reported %d", len(raw), n)
	}
}

// TestFaultCrashLatches verifies a crash fault fails its op and every
// later one, across files and the FS itself, and that nothing written
// after the crash reaches disk.
func TestFaultCrashLatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	ffs := NewFaultFS(OS, Injection{AtOp: 3, Kind: Crash})
	f := openAppend(t, ffs, path)                        // op 1
	if _, err := f.Write([]byte("before")); err != nil { // op 2
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 3: crash
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if _, err := f.Write([]byte("after")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if _, err := ffs.OpenFile(filepath.Join(dir, "y"), os.O_CREATE|os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: %v", err)
	}
	if err := ffs.Rename(path, path+".2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "before" {
		t.Fatalf("post-crash disk contents %q, want only pre-crash bytes", raw)
	}
}

// TestFaultOpClassFilter verifies an injection with a class filter lets
// non-matching ops through.
func TestFaultOpClassFilter(t *testing.T) {
	ffs := NewFaultFS(OS, Injection{AtOp: 2, Op: OpSync, Kind: EIO})
	f := openAppend(t, ffs, filepath.Join(t.TempDir(), "x")) // op 1
	if _, err := f.Write([]byte("w")); err != nil {          // op 2: write, filter is sync
		t.Fatalf("filtered injection fired on the wrong class: %v", err)
	}
	if err := f.Sync(); err != nil { // op 3: past the injection
		t.Fatal(err)
	}
	if len(ffs.Fired()) != 0 {
		t.Fatalf("fired = %+v, want none", ffs.Fired())
	}
}

// TestFaultOpCountMatchesSequence verifies the op counter advances once
// per faultable operation so schedules can target exact calls.
func TestFaultOpCountMatchesSequence(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	f := openAppend(t, ffs, filepath.Join(dir, "x"))             // 1
	f.Write([]byte("a"))                                         // 2
	f.Sync()                                                     // 3
	f.Truncate(0)                                                // 4
	f.Close()                                                    // 5
	ffs.Stat(filepath.Join(dir, "x"))                            // 6
	ffs.ReadDir(dir)                                             // 7
	ffs.Rename(filepath.Join(dir, "x"), filepath.Join(dir, "y")) // 8
	ffs.Remove(filepath.Join(dir, "y"))                          // 9
	if got := ffs.OpCount(); got != 9 {
		t.Fatalf("OpCount = %d, want 9", got)
	}
}

// TestCrashImages pins the crash model: a file keeps its synced bytes
// plus any prefix of the writes since, and a directory its synced
// entries plus any prefix of the creates, renames and removes since.
func TestCrashImages(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	f := openAppend(t, ffs, filepath.Join(dir, "a")) // op 1: create a
	write := func(s string) {
		t.Helper()
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	write("x")                       // op 2
	if err := f.Sync(); err != nil { // op 3
		t.Fatal(err)
	}
	write("y")                                // op 4
	if err := SyncDir(ffs, dir); err != nil { // ops 5-7: the entry of a is durable
		t.Fatal(err)
	}
	if err := ffs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil { // op 8
		t.Fatal(err)
	}
	images := func(j uint64) []string {
		var out []string
		for _, im := range ffs.Images(dir, j) {
			var files []string
			for p, b := range im {
				files = append(files, p+"="+string(b))
			}
			sort.Strings(files)
			out = append(out, strings.Join(files, ","))
		}
		return out
	}
	for _, c := range []struct {
		j    uint64
		want []string
	}{
		{1, []string{""}},                           // nothing ran
		{2, []string{"", "a="}},                     // the create may be lost
		{4, []string{"", "a=x"}},                    // the sync kept x, not the entry
		{5, []string{"", "a=x", "a=xy"}},            // y is unsynced
		{8, []string{"a=x", "a=xy"}},                // the directory sync kept a
		{9, []string{"a=x", "a=xy", "b=x", "b=xy"}}, // the rename is unsynced
	} {
		if got := images(c.j); !reflect.DeepEqual(got, c.want) {
			t.Errorf("cut before op %d: images %q, want %q", c.j, got, c.want)
		}
	}
	if op, path := ffs.OpAt(8); op != OpRename || path != filepath.Join(dir, "a") {
		t.Errorf("OpAt(8) = %s %s, want the rename of a", op, path)
	}
}
