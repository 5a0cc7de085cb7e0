package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/netsim"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// Tracing from outside the program: decorators on the three public seams
// (netsim.Transport, netsim.Handler, wal.FS) plus a root span the driver
// opens around every public B-tree call. Nothing inside internal/ is
// touched; spans inside the layers are a later change. Spans go to a
// preallocated slice and are written out when the run ends.

type spanKind uint8

const (
	spanOp        spanKind = iota // root: one public B-tree call
	spanTransport                 // one Transport.Call
	spanHandler                   // one request served by a memnode
	spanFS                        // one File.Write or File.Sync under the WAL
)

var spanKindNames = [...]string{"op", "transport", "handler", "fs"}

// Tags of root spans: which public call the span covers.
const (
	opSnapshot uint8 = iota
	opGet
	opPut
	opBatch
	opScan
	opOther // gc, checkpoint, stats: calls outside the five slices
	numOpTags
)

var opTagNames = [...]string{"snapshot", "get", "put", "batch", "scan", "other"}

// Tags of transport and handler spans: the request's Go type.
const (
	reqExecCommit uint8 = iota
	reqPrepare
	reqCommit
	reqAbort
	reqOther
	numReqTags
)

var reqTagNames = [...]string{"ExecCommitReq", "PrepareReq", "CommitReq", "AbortReq", "other"}

func reqTag(req any) uint8 {
	switch req.(type) {
	case *sinfonia.ExecCommitReq:
		return reqExecCommit
	case *sinfonia.PrepareReq:
		return reqPrepare
	case *sinfonia.CommitReq:
		return reqCommit
	case *sinfonia.AbortReq:
		return reqAbort
	}
	return reqOther
}

// Tags of fs spans.
const (
	fsWrite uint8 = iota
	fsSync
)

var fsTagNames = [...]string{"write", "sync"}

type span struct {
	kind       spanKind
	tag        uint8
	node       int16
	parent     int32 // index of the span that caused this one; -1 for a root
	op         int32 // index of the operation's root span; -1 when none was open
	start, end int64 // ns since the tracer was created
}

// opCell holds the index of the root span a client currently has open. Each
// client handle has its own cell, so the scanner's RPCs never attach to the
// foreground client's operation.
type opCell struct {
	cur   atomic.Int32
	calls atomic.Int64 // Transport.Call count of this client, counted whether or not spans are recorded
}

func newOpCell() *opCell {
	c := &opCell{}
	c.cur.Store(-1)
	return c
}

// tracer records spans while on is set and passes calls straight through
// otherwise, so one stack serves both the untraced and the traced rounds of
// a -trace run. A nil *tracer is valid and records nothing: runs without
// -trace build their stack with no decorators at all.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64

	fg        *opCell      // the foreground client's cell; fs spans attach to it
	wireBytes atomic.Int64 // bytes through the servers' accepted connections
	ckptBytes atomic.Int64 // bytes written to checkpoint files

	mu      sync.Mutex
	pending []pendingCall // guarded by mu; calls sent and not yet seen by a handler
}

// pendingCall lets a handler span find the transport span that caused it.
// In process the request pointer is the same on both sides; over TCP it is
// not, and the oldest open call of the same type to that node is taken.
type pendingCall struct {
	node netsim.NodeID
	req  any
	tag  uint8
	span int32
	op   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity), fg: newOpCell()}
}

func (tr *tracer) enabled() bool { return tr != nil && tr.on.Load() }

// setOn switches recording. The foreground client is idle when it is
// called; a call the scanner has in flight across the switch may leave a
// pending entry behind, so those are dropped here.
func (tr *tracer) setOn(on bool) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.pending = tr.pending[:0]
	tr.mu.Unlock()
	tr.on.Store(on)
}

func (tr *tracer) open(kind spanKind, tag uint8, node netsim.NodeID, parent, op int32) int32 {
	i := tr.n.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		tr.dropped.Add(1)
		return -1
	}
	tr.spans[i] = span{kind: kind, tag: tag, node: int16(node), parent: parent, op: op, start: int64(time.Since(tr.t0))}
	return int32(i)
}

func (tr *tracer) close(i int32) {
	if i >= 0 {
		tr.spans[i].end = int64(time.Since(tr.t0))
	}
}

// begin opens a root span for one public call made through cell's client.
func (tr *tracer) begin(cell *opCell, tag uint8) int32 {
	if !tr.enabled() {
		return -1
	}
	i := tr.open(spanOp, tag, -1, -1, -1)
	if i >= 0 {
		tr.spans[i].op = i
	}
	cell.cur.Store(i)
	return i
}

func (tr *tracer) end(cell *opCell, i int32) {
	if i < 0 {
		return
	}
	tr.close(i)
	cell.cur.Store(-1)
}

func (tr *tracer) addPending(p pendingCall) {
	tr.mu.Lock()
	tr.pending = append(tr.pending, p)
	tr.mu.Unlock()
}

func (tr *tracer) takePending(node netsim.NodeID, req any, tag uint8) (parent, op int32) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	hit := -1
	for i, p := range tr.pending {
		if p.req == req {
			hit = i
			break
		}
		if hit < 0 && p.node == node && p.tag == tag {
			hit = i
		}
	}
	if hit < 0 {
		return -1, -1
	}
	p := tr.pending[hit]
	tr.pending = append(tr.pending[:hit], tr.pending[hit+1:]...)
	return p.span, p.op
}

// dropPending forgets a call whose handler never ran (transport error).
func (tr *tracer) dropPending(span int32) {
	tr.mu.Lock()
	for i, p := range tr.pending {
		if p.span == span {
			tr.pending = append(tr.pending[:i], tr.pending[i+1:]...)
			break
		}
	}
	tr.mu.Unlock()
}

// --- decorators -----------------------------------------------------------

type tracedTransport struct {
	tr   *tracer
	next netsim.Transport
	cell *opCell
}

func (t *tracedTransport) Call(to netsim.NodeID, req any) (any, error) {
	t.cell.calls.Add(1)
	if !t.tr.on.Load() {
		return t.next.Call(to, req)
	}
	root := t.cell.cur.Load()
	tag := reqTag(req)
	i := t.tr.open(spanTransport, tag, to, root, root)
	if i >= 0 {
		t.tr.addPending(pendingCall{node: to, req: req, tag: tag, span: i, op: root})
	}
	resp, err := t.next.Call(to, req)
	t.tr.close(i)
	if err != nil && i >= 0 {
		t.tr.dropPending(i)
	}
	return resp, err
}

type tracedHandler struct {
	tr   *tracer
	next netsim.Handler
	node netsim.NodeID
}

func (h *tracedHandler) HandleRPC(req any) (any, error) {
	if !h.tr.on.Load() {
		return h.next.HandleRPC(req)
	}
	tag := reqTag(req)
	parent, op := h.tr.takePending(h.node, req, tag)
	i := h.tr.open(spanHandler, tag, h.node, parent, op)
	resp, err := h.next.HandleRPC(req)
	h.tr.close(i)
	return resp, err
}

// tracedFS times every Write and Sync the log issues. The FS seam cannot
// see which request caused a write, so fs spans name the foreground
// client's open operation as both parent and op (the durable workload has
// one client).
type tracedFS struct {
	tr   *tracer
	next wal.FS
	node netsim.NodeID
}

func (f *tracedFS) wrap(name string, file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, ckpt: strings.HasPrefix(name, "ckpt-")}, nil
}

func (f *tracedFS) Create(name string) (wal.File, error) {
	file, err := f.next.Create(name)
	return f.wrap(name, file, err)
}

func (f *tracedFS) Open(name string) (wal.File, error) {
	file, err := f.next.Open(name)
	return f.wrap(name, file, err)
}

func (f *tracedFS) Rename(oldName, newName string) error { return f.next.Rename(oldName, newName) }
func (f *tracedFS) Remove(name string) error             { return f.next.Remove(name) }
func (f *tracedFS) List() ([]string, error)              { return f.next.List() }
func (f *tracedFS) SyncDir() error                       { return f.next.SyncDir() }

type tracedFile struct {
	wal.File
	fs   *tracedFS
	ckpt bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	tr := f.fs.tr
	if !tr.on.Load() {
		return f.File.Write(p)
	}
	root := tr.fg.cur.Load()
	i := tr.open(spanFS, fsWrite, f.fs.node, root, root)
	n, err := f.File.Write(p)
	tr.close(i)
	if f.ckpt {
		tr.ckptBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	tr := f.fs.tr
	if !tr.on.Load() {
		return f.File.Sync()
	}
	root := tr.fg.cur.Load()
	i := tr.open(spanFS, fsSync, f.fs.node, root, root)
	err := f.File.Sync()
	tr.close(i)
	return err
}

// countingListener counts the bytes crossing every connection a server
// accepts: the wire cost of rpcnet's framing and envelope, seen from below.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// --- analysis -------------------------------------------------------------

// traceSummary is what the layer metrics need from the spans of the traced
// rounds.
type traceSummary struct {
	opCount   [numOpTags]int64
	opTotal   [numOpTags]int64 // ns inside root spans
	opCovered [numOpTags]int64 // ns of those covered by at least one transport span

	transportNs []float64 // per call
	handlerNs   []float64 // per request served
	fsWriteNs   []float64
	fsSyncNs    []float64

	handlerReqs [numReqTags]int64
}

type interval struct {
	op         int32
	start, end int64
}

// summarize computes self times as the guide defines them: a span's
// duration minus the part of it that its child spans cover. A root span's
// children are the transport spans carrying its op id — including those
// ExecIndependent issues from helper goroutines, which overlap, so the
// union is taken. A transport span's child is the one handler span it
// caused; their totals subtract directly.
func (tr *tracer) summarize() traceSummary {
	var s traceSummary
	n := int(tr.n.Load())
	if n > len(tr.spans) {
		n = len(tr.spans)
	}
	var kids []interval
	for i := range tr.spans[:n] {
		sp := &tr.spans[i]
		d := float64(sp.end - sp.start)
		switch sp.kind {
		case spanOp:
			s.opCount[sp.tag]++
			s.opTotal[sp.tag] += sp.end - sp.start
		case spanTransport:
			s.transportNs = append(s.transportNs, d)
			if sp.op >= 0 {
				kids = append(kids, interval{op: sp.op, start: sp.start, end: sp.end})
			}
		case spanHandler:
			s.handlerNs = append(s.handlerNs, d)
			s.handlerReqs[sp.tag]++
		case spanFS:
			if sp.tag == fsWrite {
				s.fsWriteNs = append(s.fsWriteNs, d)
			} else {
				s.fsSyncNs = append(s.fsSyncNs, d)
			}
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		if kids[a].op != kids[b].op {
			return kids[a].op < kids[b].op
		}
		return kids[a].start < kids[b].start
	})
	for i := 0; i < len(kids); {
		op := kids[i].op
		root := &tr.spans[op]
		var covered, hi int64 = 0, root.start
		for ; i < len(kids) && kids[i].op == op; i++ {
			lo, end := kids[i].start, kids[i].end
			if lo < hi {
				lo = hi
			}
			if end > root.end {
				end = root.end
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.opCovered[root.tag] += covered
	}
	return s
}

// maxSpansWritten keeps the trace file near 10 MB.
const maxSpansWritten = 250000

// writeTo dumps spans as CSV, one line per span, index first. When there
// are more than maxSpansWritten, operations are sampled by their id and
// written whole: the root span and every span that names it as op.
func (tr *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := int(tr.n.Load())
	if n > len(tr.spans) {
		n = len(tr.spans)
	}
	fmt.Fprintf(w, "# %d spans recorded; operations with id %% %d == 0 written\nindex,kind,tag,node,parent,op,start_ns,end_ns\n", n, n/maxSpansWritten+1)
	every := int32(n/maxSpansWritten + 1)
	var line []byte
	for i := range tr.spans[:n] {
		sp := &tr.spans[i]
		if every > 1 && (sp.op < 0 || sp.op%every != 0) {
			continue // not part of a sampled operation
		}
		var tag string
		switch sp.kind {
		case spanOp:
			tag = opTagNames[sp.tag]
		case spanFS:
			tag = fsTagNames[sp.tag]
		default:
			tag = reqTagNames[sp.tag]
		}
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, ',')
		line = append(line, spanKindNames[sp.kind]...)
		line = append(line, ',')
		line = append(line, tag...)
		for _, v := range [...]int64{int64(sp.node), int64(sp.parent), int64(sp.op), sp.start, sp.end} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
