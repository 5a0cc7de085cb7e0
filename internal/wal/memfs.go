package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// MemFS is an in-memory FS that models the page cache: each file tracks the
// bytes written (what the running process sees) separately from the bytes
// synced (what survives a machine crash). CrashCopy materializes the
// post-crash view, optionally keeping a prefix of the unsynced tail — that
// is exactly a torn write, so recovery is tested against the same artifacts
// a real power cut produces.
//
// Metadata operations (create/rename/remove) are modeled as immediately
// durable, the behavior the log's checkpoint protocol is written against
// anyway: it syncs file contents before renaming and never relies on a
// rename being lost.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile // guarded by mu
}

// pageSize is the unit a memFile allocates in. Growing a file adds pages and
// never moves the bytes already written, so a write costs the bytes it is
// given whatever the size of the file.
const pageSize = 64 << 10

// memFile holds its bytes in pages of pageSize: byte i is at
// pages[i/pageSize][i%pageSize]. Every page is whole, there are just enough
// of them to hold size bytes, and the bytes of the last page past size are
// zero, so a file extended past a truncation reads zeros there.
type memFile struct {
	mu     sync.Mutex
	pages  [][]byte // guarded by mu
	size   int      // guarded by mu
	synced int      // guarded by mu; durable prefix length
}

// writeAtLocked copies p to offset off, adding zeroed pages to reach it.
func (f *memFile) writeAtLocked(p []byte, off int) {
	end := off + len(p)
	for len(f.pages)*pageSize < end {
		f.pages = append(f.pages, make([]byte, pageSize))
	}
	for len(p) > 0 {
		n := copy(f.pages[off/pageSize][off%pageSize:], p)
		p, off = p[n:], off+n
	}
	f.size = max(f.size, end)
}

// readAtLocked copies the bytes from offset off into p, stopping at size,
// and returns how many it copied.
func (f *memFile) readAtLocked(p []byte, off int) int {
	n := 0
	for n < len(p) && off < f.size {
		c := copy(p[n:min(len(p), n+f.size-off)], f.pages[off/pageSize][off%pageSize:])
		n, off = n+c, off+c
	}
	return n
}

// truncateLocked shrinks the file to size, dropping the pages past it and
// zeroing the rest of the last one.
func (f *memFile) truncateLocked(size int) {
	keep := (size + pageSize - 1) / pageSize
	clear(f.pages[keep:])
	f.pages = f.pages[:keep]
	if size%pageSize != 0 {
		clear(f.pages[keep-1][size%pageSize:])
	}
	f.size = size
	f.synced = min(f.synced, size)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// TailMode selects how much of the unsynced tail survives a simulated crash.
type TailMode int

const (
	// TailSynced keeps only fsynced bytes (a machine crash losing the page
	// cache entirely).
	TailSynced TailMode = iota
	// TailHalf keeps half of the unsynced tail — a torn write: the kernel
	// flushed some pages of the tail but not all before power was cut.
	TailHalf
	// TailAll keeps every written byte (a process crash: the page cache
	// survives and the kernel completes the writeback).
	TailAll
)

// CrashCopy returns a new MemFS holding this filesystem's post-crash
// contents under the given tail mode. The receiver is unchanged, so one run
// can be recovered under several tail assumptions.
func (m *MemFS) CrashCopy(mode TailMode) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, f := range m.files {
		f.mu.Lock()
		keep := f.synced
		switch mode {
		case TailHalf:
			keep += (f.size - f.synced) / 2
		case TailAll:
			keep = f.size
		}
		c := &memFile{synced: keep}
		for i := 0; i < keep; i += pageSize {
			c.writeAtLocked(f.pages[i/pageSize][:min(pageSize, keep-i)], i)
		}
		f.mu.Unlock()
		out.files[name] = c
	}
	return out
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return &memHandle{f: f}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", name, errNotExist)
	}
	return &memHandle{f: f}, nil
}

var errNotExist = errors.New("file does not exist")

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("memfs: %s: %w", oldName, errNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: %s: %w", name, errNotExist)
	}
	delete(m.files, name)
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS (metadata is modeled as immediately durable).
func (m *MemFS) SyncDir() error { return nil }

// memHandle is an open handle onto a memFile. Writes append at the handle's
// position, which for the WAL's usage (sequential writers) matches POSIX.
type memHandle struct {
	f   *memFile
	off int64
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.writeAtLocked(p, int(h.off))
	h.off += int64(len(p))
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if off >= int64(h.f.size) {
		return 0, io.EOF
	}
	n := h.f.readAtLocked(p, int(off))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Size() (int64, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return int64(h.f.size), nil
}

func (h *memHandle) Truncate(size int64) error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if size < int64(h.f.size) {
		h.f.truncateLocked(int(size))
	}
	if h.off > size {
		h.off = size
	}
	return nil
}

func (h *memHandle) Sync() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.synced = h.f.size
	return nil
}

func (h *memHandle) Close() error { return nil }

// ErrInjected is returned by FaultFS for every operation at or past the
// configured crash point.
var ErrInjected = errors.New("wal: injected crash")

// FaultPlan counts mutating filesystem operations and fails them all once
// the counter reaches a configured crash point. One plan can be shared by
// several FaultFS instances (one per memnode) so a single operation index
// crashes a whole cluster's durability at once.
type FaultPlan struct {
	ops    atomic.Int64
	failAt atomic.Int64 // <=0: never fail
}

// NewFaultPlan returns a plan that never fails until SetFailAt is called.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// SetFailAt arms the plan: the n-th mutating operation (1-based) and every
// operation after it fail with ErrInjected.
func (p *FaultPlan) SetFailAt(n int64) { p.failAt.Store(n) }

// Ops returns how many mutating operations have been attempted.
func (p *FaultPlan) Ops() int64 { return p.ops.Load() }

// step registers one mutating operation and reports whether it must fail.
func (p *FaultPlan) step() bool {
	n := p.ops.Add(1)
	at := p.failAt.Load()
	return at > 0 && n >= at
}

// FaultFS wraps an FS, injecting a fail-stop crash of the storage layer at
// the operation index configured in the shared FaultPlan: the crashing
// operation and everything after it return ErrInjected without touching the
// underlying FS. Reads are free — recovery inspects the wreckage.
type FaultFS struct {
	fs   FS
	plan *FaultPlan
}

// NewFaultFS wraps fs with the given plan.
func NewFaultFS(fs FS, plan *FaultPlan) *FaultFS { return &FaultFS{fs: fs, plan: plan} }

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if f.plan.step() {
		return nil, ErrInjected
	}
	file, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, plan: f.plan}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, plan: f.plan}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldName, newName string) error {
	if f.plan.step() {
		return ErrInjected
	}
	return f.fs.Rename(oldName, newName)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if f.plan.step() {
		return ErrInjected
	}
	return f.fs.Remove(name)
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) { return f.fs.List() }

// SyncDir implements FS.
func (f *FaultFS) SyncDir() error {
	if f.plan.step() {
		return ErrInjected
	}
	return f.fs.SyncDir()
}

type faultFile struct {
	File
	plan *FaultPlan
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.plan.step() {
		return 0, ErrInjected
	}
	return f.File.Write(p)
}

func (f *faultFile) Truncate(size int64) error {
	if f.plan.step() {
		return ErrInjected
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Sync() error {
	if f.plan.step() {
		return ErrInjected
	}
	return f.File.Sync()
}
