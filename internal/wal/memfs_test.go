package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// flatFS is the reference MemFS: each file one flat slice that a write grows
// in place, the layout MemFS had before it kept pages. faultAt and ops mirror
// a FaultPlan: with faultAt > 0, the faultAt-th mutating operation and every
// later one fail and change nothing.
type flatFS struct {
	files   map[string]*flatFile
	faultAt int
	ops     int
}

type flatFile struct {
	data   []byte
	synced int
}

type flatHandle struct {
	f   *flatFile
	off int
}

// step counts one mutating operation and reports whether it fails.
func (m *flatFS) step() bool {
	m.ops++
	return m.faultAt > 0 && m.ops >= m.faultAt
}

func (h *flatHandle) write(p []byte) {
	end := h.off + len(p)
	if end > len(h.f.data) {
		h.f.data = append(h.f.data, make([]byte, end-len(h.f.data))...)
	}
	copy(h.f.data[h.off:end], p)
	h.off = end
}

func (h *flatHandle) readAt(p []byte, off int) (int, error) {
	if off >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *flatHandle) truncate(size int) {
	if size < len(h.f.data) {
		h.f.data = h.f.data[:size]
		h.f.synced = min(h.f.synced, size)
	}
	h.off = min(h.off, size)
}

func (m *flatFS) crashCopy(mode TailMode) *flatFS {
	out := &flatFS{files: map[string]*flatFile{}, faultAt: m.faultAt, ops: m.ops}
	for name, f := range m.files {
		keep := f.synced
		switch mode {
		case TailHalf:
			keep += (len(f.data) - f.synced) / 2
		case TailAll:
			keep = len(f.data)
		}
		out.files[name] = &flatFile{data: slices.Clone(f.data[:keep]), synced: keep}
	}
	return out
}

// TestMemFSMatchesFlatModel runs random sequences of file and directory
// operations against MemFS, directly and through a FaultFS armed at a random
// operation, and against flatFS, and compares every result. Writes and reads
// run from 0 to 3 pages long at any offset, so they straddle page
// boundaries; a handle left past a truncation by another handle writes
// across a gap that must read as zeros; CrashCopy runs under every tail
// mode, and the sequence goes on half the time in the copy.
func TestMemFSMatchesFlatModel(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/faultfs=%v", seed, faulty), func(t *testing.T) {
				runMemFSModel(t, rand.New(rand.NewSource(seed)), faulty)
			})
		}
	}
}

func runMemFSModel(t *testing.T, rng *rand.Rand, faulty bool) {
	const steps = 300
	names := []string{"a", "b", "c"}
	mem := NewMemFS()
	model := &flatFS{files: map[string]*flatFile{}}
	var plan *FaultPlan
	var fsys FS = mem
	if faulty {
		plan = NewFaultPlan()
		model.faultAt = 1 + rng.Intn(steps)
		plan.SetFailAt(int64(model.faultAt))
		fsys = NewFaultFS(mem, plan)
	}
	type handle struct {
		f File
		m *flatHandle
	}
	var handles []handle
	// length picks a read or write length: often short, otherwise up to 3
	// pages, sometimes exactly to the end of the page at off.
	length := func(off int) int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(64)
		case 1:
			return pageSize - off%pageSize + rng.Intn(3) - 1
		default:
			return rng.Intn(3*pageSize + 1)
		}
	}
	mode := TailSynced
	for step := 0; step < steps; step++ {
		where := fmt.Sprintf("step %d", step)
		name := names[rng.Intn(len(names))]
		op := rng.Intn(12)
		if len(handles) == 0 && op >= 3 && op <= 8 {
			op = 0
		}
		var h handle
		if len(handles) > 0 {
			h = handles[rng.Intn(len(handles))]
		}
		switch op {
		case 0: // Create
			f, err := fsys.Create(name)
			if model.step() {
				wantInjected(t, where+" Create", err)
				continue
			}
			if err != nil {
				t.Fatalf("%s: Create(%s): %v", where, name, err)
			}
			mf := &flatFile{}
			model.files[name] = mf
			handles = append(handles, handle{f, &flatHandle{f: mf}})
		case 1: // Open
			f, err := fsys.Open(name)
			mf, ok := model.files[name]
			if ok != (err == nil) {
				t.Fatalf("%s: Open(%s) = %v, model has it: %v", where, name, err, ok)
			}
			if ok {
				handles = append(handles, handle{f, &flatHandle{f: mf}})
			}
		case 2: // Rename or Remove
			to, remove := names[rng.Intn(len(names))], rng.Intn(3) == 0
			var err error
			if remove {
				err = fsys.Remove(name)
			} else {
				err = fsys.Rename(name, to)
			}
			if model.step() {
				wantInjected(t, where+" Rename/Remove", err)
				continue
			}
			mf, ok := model.files[name]
			if ok != (err == nil) {
				t.Fatalf("%s: Rename/Remove(%s) = %v, model has it: %v", where, name, err, ok)
			}
			if ok {
				delete(model.files, name)
				if !remove {
					model.files[to] = mf
				}
			}
		case 3, 4, 5: // Write
			p := make([]byte, length(h.m.off))
			rng.Read(p)
			n, err := h.f.Write(p)
			if model.step() {
				wantInjected(t, where+" Write", err)
				continue
			}
			if err != nil || n != len(p) {
				t.Fatalf("%s: Write(%d bytes) = %d, %v", where, len(p), n, err)
			}
			h.m.write(p)
		case 6, 7: // ReadAt
			off := rng.Intn(len(h.m.f.data) + pageSize + 1)
			got := make([]byte, length(off))
			want := make([]byte, len(got))
			n, err := h.f.ReadAt(got, int64(off))
			wn, werr := h.m.readAt(want, off)
			if n != wn || err != werr || !bytes.Equal(got[:n], want[:wn]) {
				t.Fatalf("%s: ReadAt(%d bytes at %d) = %d, %v; model %d, %v (contents equal: %v)",
					where, len(got), off, n, err, wn, werr, bytes.Equal(got[:n], want[:wn]))
			}
		case 8: // Truncate or Sync
			if rng.Intn(2) == 0 {
				size := rng.Intn(len(h.m.f.data) + pageSize + 1)
				err := h.f.Truncate(int64(size))
				if model.step() {
					wantInjected(t, where+" Truncate", err)
					continue
				}
				if err != nil {
					t.Fatalf("%s: Truncate(%d): %v", where, size, err)
				}
				h.m.truncate(size)
			} else {
				err := h.f.Sync()
				if model.step() {
					wantInjected(t, where+" Sync", err)
					continue
				}
				if err != nil {
					t.Fatalf("%s: Sync: %v", where, err)
				}
				h.m.f.synced = len(h.m.f.data)
			}
		case 9, 10: // Size of every open handle
			for i, h := range handles {
				if n, err := h.f.Size(); err != nil || n != int64(len(h.m.f.data)) {
					t.Fatalf("%s: handle %d Size = %d, %v; model %d", where, i, n, err, len(h.m.f.data))
				}
			}
		case 11: // CrashCopy, in turn under each tail mode
			cp := mem.CrashCopy(mode)
			mcp := model.crashCopy(mode)
			compareFS(t, fmt.Sprintf("%s CrashCopy(%d)", where, mode), cp, mcp)
			mode = (mode + 1) % 3
			if rng.Intn(2) == 0 {
				mem, model, handles = cp, mcp, nil
				fsys = mem
				if faulty {
					fsys = NewFaultFS(mem, plan)
				}
			}
		}
	}
	compareFS(t, "end", mem, model)
	if faulty && plan.Ops() != int64(model.ops) {
		t.Fatalf("FaultFS counted %d mutating operations, the model %d", plan.Ops(), model.ops)
	}
}

func wantInjected(t *testing.T, where string, err error) {
	t.Helper()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("%s past the crash point: err = %v, want ErrInjected", where, err)
	}
}

// compareFS checks that mem holds the model's files: the same names, and for
// each the same bytes, and the same synced prefix (what CrashCopy(TailSynced)
// keeps of it).
func compareFS(t *testing.T, where string, mem *MemFS, model *flatFS) {
	t.Helper()
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(model.files))
	for n := range model.files {
		want = append(want, n)
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("%s: files %v, model %v", where, names, want)
	}
	synced := mem.CrashCopy(TailSynced)
	for _, n := range names {
		mf := model.files[n]
		for _, c := range []struct {
			fs   *MemFS
			want []byte
		}{{mem, mf.data}, {synced, mf.data[:mf.synced]}} {
			f, err := c.fs.Open(n)
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.Size()
			if err != nil || size != int64(len(c.want)) {
				t.Fatalf("%s: %s is %d bytes (%v), model %d", where, n, size, err, len(c.want))
			}
			got := make([]byte, size+1)
			k, err := f.ReadAt(got, 0)
			if k != len(c.want) || err != io.EOF || !bytes.Equal(got[:k], c.want) {
				t.Fatalf("%s: %s reads %d bytes (%v), model %d; equal %v", where, n, k, err, len(c.want), bytes.Equal(got[:k], c.want))
			}
		}
	}
}

// TestMemFSAppendCopiesOnlyNewBytes appends 16 MiB to an empty file in 4 KiB
// records, as a log segment grows, and checks that MemFS allocates little
// more than the bytes appended. A file kept as one slice, grown by append,
// re-allocates and re-copies itself as it grows: about 6× the appended
// bytes.
func TestMemFSAppendCopiesOnlyNewBytes(t *testing.T) {
	const total, record = 16 << 20, 4 << 10
	f, err := NewMemFS().Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0x5A}, record)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := 0; n < total; n += record {
		if _, err := f.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if size, err := f.Size(); err != nil || size != total {
		t.Fatalf("Size = %d, %v; want %d", size, err, total)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("appending %d MiB allocated %.2f× the appended bytes", total>>20, float64(alloc)/total)
	if alloc > total*5/4 {
		t.Errorf("appending %d bytes allocated %d bytes, more than 1.25× (%.2f×)", total, alloc, float64(alloc)/total)
	}
}
