package sinfonia

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minuet/internal/netsim"
	"minuet/internal/wal"
	"minuet/internal/wire"
)

// walkBytes is the full walk StatsResp.Bytes used to be: the reference the
// maintained count is checked against.
func walkBytes(t *testing.T, m *Memnode) int64 {
	t.Helper()
	m.mu.Lock()
	var walk int64
	for _, it := range m.items {
		walk += int64(len(it.data))
	}
	kept := m.bytes
	m.mu.Unlock()
	if kept != walk {
		t.Fatalf("memnode %d keeps a byte count of %d, its items hold %d", m.id, kept, walk)
	}
	resp, err := m.HandleRPC(&StatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(*StatsResp).Bytes; got != walk {
		t.Fatalf("memnode %d reports %d bytes, its items hold %d", m.id, got, walk)
	}
	return walk
}

// TestPromotionRestoresFullLockSet: a prepare locks the addresses it only
// compares or reads, and the stage record carries that lock set to the backup,
// so a promoted node keeps a conflicting write out until phase two arrives —
// as a restarted node always did. (Promotion used to rebuild the locks from
// the staged writes alone.)
func TestPromotionRestoresFullLockSet(t *testing.T) {
	tr, _, mns := newCluster(2)
	mns[0].SetBackup(tr, 1)
	execWrite(t, mns[0], 50, "guard")
	resp, err := mns[0].HandleRPC(&PrepareReq{
		Txid:         77,
		Compares:     []CompareItem{{Node: 0, Addr: 50, Version: 1}},
		Writes:       []WriteItem{{Node: 0, Addr: 51, Data: []byte("w")}},
		Participants: []NodeID{0, 1},
	})
	if err != nil || resp.(*ExecResp).Vote != voteOK {
		t.Fatalf("prepare: %v %+v", err, resp)
	}

	tr.SetDown(0, true)
	p := mns[1].PromoteReplica(0)
	tr.Bind(0, p)
	tr.SetDown(0, false)

	intrude := func(txid uint64) vote {
		t.Helper()
		resp, err := p.HandleRPC(&ExecCommitReq{
			Txid:   txid,
			Writes: []WriteItem{{Node: 0, Addr: 50, Data: []byte("intruder")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(*ExecResp).Vote
	}
	if v := intrude(78); v != voteBusy {
		t.Fatalf("write to the compared address on the promoted node: vote %d, want busy", v)
	}
	if _, err := p.HandleRPC(&CommitReq{Txid: 77}); err != nil {
		t.Fatal(err)
	}
	if v := intrude(79); v != voteOK {
		t.Fatalf("write after phase two: vote %d, want ok", v)
	}
	if got, _ := itemData(p, 51); got != "w" {
		t.Fatalf("staged write after promoted commit: %q", got)
	}
	walkBytes(t, p)
}

// sameState fails unless a and b hold the same replicated state — item for
// item, stage for stage, outcome for outcome — and the same locks.
func sameState(t *testing.T, aName string, a *Memnode, bName string, b *Memnode) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(a.items) != len(b.items) {
		t.Fatalf("%s holds %d items, %s %d", aName, len(a.items), bName, len(b.items))
	}
	for addr, ia := range a.items {
		ib := b.items[addr]
		if ib == nil || ia.version != ib.version || !bytes.Equal(ia.data, ib.data) {
			t.Fatalf("item %d: %s has %+v, %s has %+v", addr, aName, ia, bName, ib)
		}
	}
	if len(a.staged) != len(b.staged) {
		t.Fatalf("%s holds %d stages, %s %d", aName, len(a.staged), bName, len(b.staged))
	}
	for txid, sa := range a.staged {
		sb := b.staged[txid]
		if sb == nil {
			t.Fatalf("txn %d staged on %s only", txid, aName)
		}
		if len(sa.writes) != len(sb.writes) {
			t.Fatalf("txn %d: %d staged writes on %s, %d on %s", txid, len(sa.writes), aName, len(sb.writes), bName)
		}
		for i := range sa.writes {
			if sa.writes[i].Addr != sb.writes[i].Addr || !bytes.Equal(sa.writes[i].Data, sb.writes[i].Data) {
				t.Fatalf("txn %d staged write %d differs: %+v vs %+v", txid, i, sa.writes[i], sb.writes[i])
			}
		}
		if fmt.Sprint(sa.addrs) != fmt.Sprint(sb.addrs) {
			t.Fatalf("txn %d lock set: %v on %s, %v on %s", txid, sa.addrs, aName, sb.addrs, bName)
		}
		if fmt.Sprint(sa.participants) != fmt.Sprint(sb.participants) {
			t.Fatalf("txn %d participants: %v on %s, %v on %s", txid, sa.participants, aName, sb.participants, bName)
		}
	}
	if !reflect.DeepEqual(a.outcomes.order, b.outcomes.order) || !reflect.DeepEqual(a.outcomes.m, b.outcomes.m) {
		t.Fatalf("outcome logs differ:\n%s %v %v\n%s %v %v", aName, a.outcomes.order, a.outcomes.m, bName, b.outcomes.order, b.outcomes.m)
	}
	if !reflect.DeepEqual(a.locked, b.locked) {
		t.Fatalf("locks differ: %s %v, %s %v", aName, a.locked, bName, b.locked)
	}
}

// TestLogAndMirrorConverge: one stream feeds both sinks. A seeded random
// history of one-phase commits, two-phase commits, aborts and empty commits
// runs against a durable primary with a backup, with checkpoints cut in
// between and some prepares left in flight; the state the log recovers after
// a machine crash and the state the backup promotes must then be the same,
// and both must be what the primary itself held.
func TestLogAndMirrorConverge(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := wal.NewMemFS()
			primary := mustOpen(t, fs, DurOptions{CheckpointEvery: -1})
			backup := NewMemnode(1)
			tr := netsim.NewLocal(0)
			tr.Bind(0, primary)
			tr.Bind(1, backup)
			primary.SetBackup(tr, 1)

			call := func(req any) any {
				t.Helper()
				resp, err := primary.HandleRPC(req)
				if err != nil {
					t.Fatalf("%T: %v", req, err)
				}
				return resp
			}
			addr := func() Addr { return Addr(100 + rng.Intn(24)) }
			writes := func(n int) []WriteItem {
				out := make([]WriteItem, n)
				for i := range out {
					out[i] = WriteItem{Addr: addr(), Data: bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(40))}
				}
				return out
			}
			txid := uint64(0)
			unprepared := map[uint64]bool{}
			for i := 0; i < 400; i++ {
				txid++
				switch r := rng.Intn(10); {
				case r < 4: // one-phase commit (may vote busy against an in-flight prepare)
					call(&ExecCommitReq{Txid: txid, Reads: []ReadItem{{Addr: addr()}}, Writes: writes(1 + rng.Intn(3))})
				case r < 9: // prepare, then commit / abort / leave in flight
					req := &PrepareReq{
						Txid:         txid,
						Reads:        []ReadItem{{Addr: addr()}},
						Compares:     []CompareItem{{Addr: addr(), Version: 0}},
						Participants: []NodeID{0, 1},
					}
					if r != 8 { // r == 8: an empty commit, nothing to write here
						req.Writes = writes(1 + rng.Intn(3))
					}
					if rng.Intn(3) == 0 {
						req.Compares = nil // the compare above fails once its address is written
					}
					if call(req).(*ExecResp).Vote != voteOK {
						continue
					}
					switch rng.Intn(8) {
					case 0: // left prepared
					case 1, 2:
						call(&AbortReq{Txid: txid})
					default:
						call(&CommitReq{Txid: txid})
					}
				default: // abort of a transaction this node never prepared
					call(&AbortReq{Txid: txid})
					unprepared[txid] = true
				}
				if i%97 == 96 {
					if err := primary.CheckpointNow(); err != nil {
						t.Fatal(err)
					}
				}
			}
			primary.mu.Lock()
			nStaged, nItems := len(primary.staged), len(primary.items)
			primary.mu.Unlock()
			if nStaged == 0 || nItems == 0 {
				t.Fatalf("history left %d stages and %d items; the comparison would be vacuous", nStaged, nItems)
			}

			recovered := mustOpen(t, fs.CrashCopy(wal.TailSynced), DurOptions{})
			defer recovered.Close()
			promoted := backup.PromoteReplica(0)
			// An abort of a never-prepared transaction is a fence in the
			// primary's memory, not a redo record (there is no stage a sink
			// could resurrect); a checkpoint happens to persist it. Set those
			// aside and the three states must be one.
			for _, m := range []*Memnode{primary, recovered} {
				m.mu.Lock()
				kept := newOutcomeLog(m.outcomes.cap)
				for _, id := range m.outcomes.order {
					if !unprepared[id] {
						kept.record(id, m.outcomes.m[id])
					}
				}
				m.outcomes = kept
				m.mu.Unlock()
			}
			sameState(t, "recovered", recovered, "promoted", promoted)
			sameState(t, "primary", primary, "recovered", recovered)
			if rb, pb := walkBytes(t, recovered), walkBytes(t, promoted); rb != pb || rb != walkBytes(t, primary) {
				t.Fatalf("byte counts: recovered %d, promoted %d", rb, pb)
			}
			if err := primary.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzRedoRecord from the sample records")

// redoSamples are the record shapes the seed corpus covers, by corpus file
// name.
func redoSamples() map[string][]byte {
	enc := func(rec RedoRecord) []byte {
		b := wire.NewBuffer(0)
		encodeRedo(b, &rec)
		return b.Bytes()
	}
	stage := enc(RedoRecord{
		Kind: recStage, Txid: 9,
		Writes:       []RedoWrite{{Addr: 4096, Data: []byte("promised")}, {Addr: 8192, Data: []byte{}}},
		Locks:        []Addr{512, 4096, 8192}, // 512 is compared, not written
		Participants: []NodeID{0, 2},
	})
	hugeCount := wire.NewBuffer(0)
	hugeCount.U8(recApply)
	hugeCount.U64(1)
	hugeCount.U8(0)
	hugeCount.U32(0xFFFF_FFFF)
	return map[string][]byte{
		"apply":          enc(RedoRecord{Kind: recApply, Txid: 5, Writes: []RedoWrite{{Addr: 4096, Version: 3, Data: []byte("image")}, {Addr: 8192, Version: 1, Data: bytes.Repeat([]byte{0xAB}, 300)}}}),
		"apply-staged":   enc(RedoRecord{Kind: recApply, Txid: 9, Flag: true, Writes: []RedoWrite{{Addr: 4096, Version: 4, Data: []byte("promised")}}}),
		"stage":          stage,
		"resolve-commit": enc(RedoRecord{Kind: recResolve, Txid: 9}),
		"resolve-abort":  enc(RedoRecord{Kind: recResolve, Txid: 9, Flag: true}),
		"truncated":      stage[:len(stage)-5],
		"huge-count":     hugeCount.Bytes(),
	}
}

// FuzzRedoRecord fuzzes the one decoder of redo records, which reads what a
// disk or a peer hands it: for arbitrary input it must not panic and must
// not size anything beyond what the input could back. Whenever a record does
// decode it is canonical — encoding it reproduces the bytes consumed, and
// decoding those gives the same record — and redoing it, twice, leaves a
// state whose byte count matches its items. The same bytes read as a
// checkpoint must fail or load cleanly too.
//
// The seed corpus in testdata/fuzz/FuzzRedoRecord runs as ordinary unit tests
// in every `go test`; TestFuzzRedoRecordCorpus keeps it in step with the
// encoder.
func FuzzRedoRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		m := NewMemnode(0)
		m.mu.Lock()
		_ = m.decodeStateLocked(p)
		m.mu.Unlock()

		r := wire.NewReader(p)
		rec, err := decodeRedo(r)
		if err != nil {
			return
		}
		consumed := p[:len(p)-r.Remaining()]
		if n := len(rec.Writes)*20 + len(rec.Locks)*8 + len(rec.Participants)*4; n > len(consumed) {
			t.Fatalf("%d writes, %d locks, %d participants from %d input bytes", len(rec.Writes), len(rec.Locks), len(rec.Participants), len(consumed))
		}
		b := wire.NewBuffer(0)
		encodeRedo(b, &rec)
		if !bytes.Equal(b.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the %d bytes consumed:\n got %x\nwant %x", len(consumed), b.Bytes(), consumed)
		}
		again, err := decodeRedo(wire.NewReader(b.Bytes()))
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("decode(encode(rec)) = %+v, %v; want %+v", again, err, rec)
		}

		m = NewMemnode(0)
		m.mu.Lock()
		m.redoLocked(&rec)
		m.redoLocked(&rec)
		m.relockStagedLocked()
		m.mu.Unlock()
		walkBytes(t, m)
	})
}

// TestFuzzRedoRecordCorpus checks that the checked-in seed corpus still holds
// the encodings of the sample records it was made from, so a format change
// cannot leave the fuzzer starting from stale shapes. Regenerate with
//
//	go test ./internal/sinfonia -run TestFuzzRedoRecordCorpus -update
func TestFuzzRedoRecordCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRedoRecord")
	for name, p := range redoSamples() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p)
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale: the encoder no longer produces it (rerun with -update)", path)
		}
	}
}
