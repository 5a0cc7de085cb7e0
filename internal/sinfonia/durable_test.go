package sinfonia

import (
	"errors"
	"strings"
	"testing"
	"time"

	"minuet/internal/wal"
	"minuet/internal/wire"
)

// durTestTxid hands out distinct transaction ids within one test.
var durTestTxid uint64

func nextTxid() uint64 {
	durTestTxid++
	return durTestTxid
}

// mustOpen opens a durable memnode or fails the test.
func mustOpen(t *testing.T, fs wal.FS, opts DurOptions) *Memnode {
	t.Helper()
	m, err := OpenDurable(0, fs, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return m
}

// execWrite runs a one-phase write through the RPC handler.
func execWrite(t *testing.T, m *Memnode, addr Addr, data string) {
	t.Helper()
	resp, err := m.HandleRPC(&ExecCommitReq{
		Txid:   nextTxid(),
		Writes: []WriteItem{{Node: m.id, Addr: addr, Data: []byte(data)}},
	})
	if err != nil {
		t.Fatalf("write %d: %v", addr, err)
	}
	if resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("write %d: vote %v", addr, resp.(*ExecResp).Vote)
	}
}

// itemData reads an item's bytes directly (same package; tests only).
func itemData(m *Memnode, addr Addr) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	it, ok := m.items[addr]
	if !ok {
		return "", false
	}
	return string(it.data), true
}

func TestDurableRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	m := mustOpen(t, fs, DurOptions{})
	for i := 0; i < 10; i++ {
		execWrite(t, m, Addr(100+i), strings.Repeat("x", i+1))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, fs, DurOptions{})
	defer m2.Close()
	for i := 0; i < 10; i++ {
		got, ok := itemData(m2, Addr(100+i))
		if !ok || got != strings.Repeat("x", i+1) {
			t.Fatalf("addr %d: got %q ok=%v", 100+i, got, ok)
		}
	}
	// Versions must be restored verbatim: OCC compares span restarts.
	m2.mu.Lock()
	v := m2.items[100].version
	m2.mu.Unlock()
	if v != 1 {
		t.Fatalf("version not restored: %d", v)
	}
}

func TestDurableMachineCrashKeepsAckedWrites(t *testing.T) {
	fs := wal.NewMemFS()
	m := mustOpen(t, fs, DurOptions{})
	for i := 0; i < 5; i++ {
		execWrite(t, m, Addr(i), "acked")
	}
	// No Close: a machine crash drops everything that was not fsynced. Every
	// write above was acknowledged, so every write must survive.
	m2 := mustOpen(t, fs.CrashCopy(wal.TailSynced), DurOptions{})
	defer m2.Close()
	for i := 0; i < 5; i++ {
		if got, ok := itemData(m2, Addr(i)); !ok || got != "acked" {
			t.Fatalf("addr %d lost after crash: %q ok=%v", i, got, ok)
		}
	}
}

func TestDurablePreparedSurvivesRestart(t *testing.T) {
	fs := wal.NewMemFS()
	m := mustOpen(t, fs, DurOptions{})
	execWrite(t, m, 7, "old")

	txid := nextTxid()
	resp, err := m.HandleRPC(&PrepareReq{
		Txid:         txid,
		Compares:     []CompareItem{{Node: 0, Addr: 7, Kind: CompareVersion, Version: 1}},
		Writes:       []WriteItem{{Node: 0, Addr: 7, Data: []byte("new")}},
		Participants: []NodeID{0, 1},
	})
	if err != nil || resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare: %v %v", err, resp)
	}

	// Machine crash between phases. The STAGE record was durable before the
	// yes vote, so the restarted node must still hold the promise — and the
	// locks that protect it.
	fs2 := fs.CrashCopy(wal.TailSynced)
	m2 := mustOpen(t, fs2, DurOptions{})
	defer m2.Close()

	st, err := m2.HandleRPC(&TxnStatusReq{Txid: txid})
	if err != nil || st.(*TxnStatusResp).Status != TxnPrepared {
		t.Fatalf("want prepared after restart, got %+v err=%v", st, err)
	}
	// The staged address is locked again: a conflicting write must bounce.
	resp, err = m2.HandleRPC(&ExecCommitReq{
		Txid:   nextTxid(),
		Writes: []WriteItem{{Node: 0, Addr: 7, Data: []byte("intruder")}},
	})
	if err != nil || resp.(*ExecResp).Vote != voteBusy {
		t.Fatalf("conflicting write should be busy, got %+v err=%v", resp, err)
	}

	// Phase two lands exactly as it would have without the crash.
	if _, err := m2.HandleRPC(&CommitReq{Txid: txid}); err != nil {
		t.Fatal(err)
	}
	if got, _ := itemData(m2, 7); got != "new" {
		t.Fatalf("commit after restart: got %q", got)
	}

	// And the decision itself is durable: restart again, outcome is fenced.
	m3 := mustOpen(t, fs2.CrashCopy(wal.TailSynced), DurOptions{})
	defer m3.Close()
	if got, _ := itemData(m3, 7); got != "new" {
		t.Fatalf("phase-two commit lost: got %q", got)
	}
	st, _ = m3.HandleRPC(&TxnStatusReq{Txid: txid})
	if st.(*TxnStatusResp).Status != TxnCommitted {
		t.Fatalf("outcome not fenced: %+v", st)
	}
}

func TestDurableAbortFencedAcrossRestart(t *testing.T) {
	fs := wal.NewMemFS()
	m := mustOpen(t, fs, DurOptions{})
	txid := nextTxid()
	if _, err := m.HandleRPC(&PrepareReq{
		Txid:         txid,
		Writes:       []WriteItem{{Node: 0, Addr: 9, Data: []byte("doomed")}},
		Participants: []NodeID{0, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.HandleRPC(&AbortReq{Txid: txid}); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, fs.CrashCopy(wal.TailSynced), DurOptions{})
	defer m2.Close()
	// A slow coordinator's late commit must not resurrect the writes.
	if _, err := m2.HandleRPC(&CommitReq{Txid: txid}); err != nil {
		t.Fatal(err)
	}
	if _, ok := itemData(m2, 9); ok {
		t.Fatal("aborted txn's write appeared after restart")
	}
	st, _ := m2.HandleRPC(&TxnStatusReq{Txid: txid})
	if st.(*TxnStatusResp).Status != TxnAborted {
		t.Fatalf("abort not fenced: %+v", st)
	}
}

func TestDurableCheckpointAndTail(t *testing.T) {
	fs := wal.NewMemFS()
	m := mustOpen(t, fs, DurOptions{})
	for i := 0; i < 20; i++ {
		execWrite(t, m, Addr(i), "pre")
	}
	if err := m.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		execWrite(t, m, Addr(i), "post")
	}

	m2 := mustOpen(t, fs.CrashCopy(wal.TailSynced), DurOptions{})
	defer m2.Close()
	for i := 0; i < 20; i++ {
		if got, _ := itemData(m2, Addr(i)); got != "pre" {
			t.Fatalf("addr %d: %q", i, got)
		}
	}
	for i := 20; i < 30; i++ {
		if got, _ := itemData(m2, Addr(i)); got != "post" {
			t.Fatalf("addr %d: %q", i, got)
		}
	}
}

func TestDurableAutoCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	// A tiny threshold so ordinary writes trip the background checkpoint.
	m := mustOpen(t, fs, DurOptions{CheckpointEvery: 64})
	for i := 0; i < 50; i++ {
		execWrite(t, m, Addr(i), strings.Repeat("y", 32))
	}
	// The checkpoint runs on a background goroutine; wait for one to land
	// before closing (Close would otherwise race the rotation).
	hasCkpt := false
	deadline := time.Now().Add(5 * time.Second)
	for !hasCkpt && time.Now().Before(deadline) {
		names, _ := fs.List()
		for _, n := range names {
			if strings.HasPrefix(n, "ckpt-") {
				hasCkpt = true
			}
		}
		if !hasCkpt {
			execWrite(t, m, 0, strings.Repeat("y", 32)) // keep tripping the threshold
			time.Sleep(time.Millisecond)
		}
	}
	if !hasCkpt {
		t.Fatal("no checkpoint written")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, fs, DurOptions{})
	defer m2.Close()
	for i := 0; i < 50; i++ {
		if got, _ := itemData(m2, Addr(i)); got != strings.Repeat("y", 32) {
			t.Fatalf("addr %d: %q", i, got)
		}
	}
}

func TestDurableFailStop(t *testing.T) {
	base := wal.NewMemFS()
	plan := wal.NewFaultPlan()
	fs := wal.NewFaultFS(base, plan)
	m := mustOpen(t, fs, DurOptions{})
	execWrite(t, m, 1, "ok")

	plan.SetFailAt(plan.Ops() + 1) // next mutating op (the append) fails
	_, err := m.HandleRPC(&ExecCommitReq{
		Txid:   nextTxid(),
		Writes: []WriteItem{{Node: 0, Addr: 2, Data: []byte("lost")}},
	})
	if err == nil {
		t.Fatal("write over a dead log must not be acknowledged")
	}
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}

	// The node is poisoned: even a read-only request is refused, and stays
	// refused after the fault "heals" — fail-stop, not fail-retry.
	plan.SetFailAt(0)
	if _, err := m.HandleRPC(&TxnStatusReq{Txid: 1}); err == nil {
		t.Fatal("poisoned node accepted a request")
	}

	// Recovery sees only what was acknowledged.
	m2 := mustOpen(t, base.CrashCopy(wal.TailSynced), DurOptions{})
	defer m2.Close()
	if got, _ := itemData(m2, 1); got != "ok" {
		t.Fatalf("acked write lost: %q", got)
	}
	if _, ok := itemData(m2, 2); ok {
		t.Fatal("unacknowledged write visible after recovery")
	}
}

// TestReplayRejectsHugeCounts: element counts inside a record are untrusted
// until they fit in the bytes that remain. A corrupt count must fail as
// errBadRecord, not as a multi-gigabyte allocation during recovery.
func TestReplayRejectsHugeCounts(t *testing.T) {
	m := NewMemnode(0)
	m.mu.Lock()
	defer m.mu.Unlock()
	// STAGE record with no writes, claiming four billion locked addresses,
	// then no body.
	b := wire.NewBuffer(0)
	b.U8(recStage)
	b.U64(1)
	b.U8(0)
	b.U32(0)
	b.U32(0xFFFF_FFFF)
	if err := m.replayRecordLocked(b.Bytes()); !errors.Is(err, errBadRecord) {
		t.Fatalf("huge lock count: got %v, want errBadRecord", err)
	}

	// Checkpoint claiming a huge record count, and one whose only record
	// claims a huge write count.
	b = wire.NewBuffer(0)
	b.U8(stateVersion)
	b.U32(0xFFFF_FFFF)
	if err := m.decodeStateLocked(b.Bytes()); !errors.Is(err, errBadRecord) {
		t.Fatalf("huge record count: got %v, want errBadRecord", err)
	}
	b = wire.NewBuffer(0)
	b.U8(stateVersion)
	b.U32(1)
	b.U8(recStage)
	b.U64(7)
	b.U8(0)
	b.U32(0xFFFF_FFFF) // writes: far past the end of the buffer
	b.U32(0)
	b.U32(0)
	if err := m.decodeStateLocked(b.Bytes()); !errors.Is(err, errBadRecord) {
		t.Fatalf("huge write count: got %v, want errBadRecord", err)
	}
}

// TestDurableOversizedTxnRefused: a minitransaction whose redo record would
// exceed the wal frame limit is refused before anything mutates — a clean
// per-request error, not a fail-stopped node (and never an acknowledged
// write that recovery could not parse back).
func TestDurableOversizedTxnRefused(t *testing.T) {
	fs := wal.NewMemFS()
	m := mustOpen(t, fs, DurOptions{})
	execWrite(t, m, 1, "before")

	big := make([]byte, wal.MaxRecordLen)
	if _, err := m.HandleRPC(&ExecCommitReq{
		Txid:   nextTxid(),
		Writes: []WriteItem{{Node: 0, Addr: 2, Data: big}},
	}); err == nil {
		t.Fatal("oversized one-phase write acknowledged")
	}
	if _, err := m.HandleRPC(&PrepareReq{
		Txid:         nextTxid(),
		Writes:       []WriteItem{{Node: 0, Addr: 2, Data: big}},
		Participants: []NodeID{0, 1},
	}); err == nil {
		t.Fatal("oversized prepare acknowledged")
	}

	// The node is still healthy and nothing leaked into memory or the log.
	execWrite(t, m, 3, "after")
	if _, ok := itemData(m, 2); ok {
		t.Fatal("oversized write applied")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, fs, DurOptions{})
	defer m2.Close()
	for addr, want := range map[Addr]string{1: "before", 3: "after"} {
		if got, _ := itemData(m2, addr); got != want {
			t.Fatalf("addr %d: %q, want %q", addr, got, want)
		}
	}
	if _, ok := itemData(m2, 2); ok {
		t.Fatal("oversized write resurfaced after recovery")
	}
}

func TestVolatileMemnodeUnchanged(t *testing.T) {
	// A plain NewMemnode never touches a log: Durable is false, Close is a
	// no-op, and the handler path takes no fail-stop branch.
	m := NewMemnode(3)
	if m.Durable() {
		t.Fatal("volatile node claims durability")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if s := m.WALStats(); s.Appends != 0 || s.Syncs != 0 {
		t.Fatalf("volatile node has wal stats: %+v", s)
	}
	execWrite(t, m, 5, "v")
	if got, _ := itemData(m, 5); got != "v" {
		t.Fatalf("got %q", got)
	}
}
