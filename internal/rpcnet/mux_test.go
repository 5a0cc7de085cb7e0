package rpcnet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minuet/internal/netsim"
)

// echoReq/echoResp are test-only RPC types; like any application type they
// are registered with gob by their user.
type echoReq struct{ N int }
type echoResp struct{ N int }

func init() {
	gob.Register(&echoReq{})
	gob.Register(&echoResp{})
}

// startEcho serves handler on loopback and returns a client addressed at it
// as node 0.
func startEcho(t *testing.T, handler netsim.Handler) (*Client, *Server) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client, srv
}

// connCount reports the server's live connection count.
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestPipelinedCallsShareOneConnection drives many concurrent calls through
// a single-connection budget and checks that (a) every response reaches the
// caller that issued its request — the request-id routing — and (b) the
// server really saw just one connection.
func TestPipelinedCallsShareOneConnection(t *testing.T) {
	var inHandler atomic.Int64
	var peak atomic.Int64
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		cur := inHandler.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inHandler.Add(-1)
		return &echoResp{N: req.(*echoReq).N}, nil
	}))
	client.ConnsPerPeer = 1
	client.Window = 64

	const calls = 64
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Call(0, &echoReq{N: i})
			if err != nil {
				errs[i] = err
				return
			}
			if got := resp.(*echoResp).N; got != i {
				errs[i] = fmt.Errorf("response routed to wrong caller: got %d want %d", got, i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server saw %d connections, want 1", n)
	}
	if p := peak.Load(); p < 8 {
		t.Fatalf("peak handler concurrency %d: calls were not pipelined", p)
	}
}

// TestBackpressureWindowFull fills the in-flight window with blocked
// requests and checks that the next call queues and then fails with
// ErrBackpressure instead of hanging or being sent.
func TestBackpressureWindowFull(t *testing.T) {
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	client, _ := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		entered <- struct{}{}
		<-gate
		return &echoResp{N: req.(*echoReq).N}, nil
	}))
	client.ConnsPerPeer = 1
	client.Window = 2
	client.QueueWait = 50 * time.Millisecond

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call(0, &echoReq{N: i}); err != nil {
				t.Errorf("windowed call %d: %v", i, err)
			}
		}(i)
	}
	// Both window slots are taken once the handlers have been entered.
	<-entered
	<-entered

	_, err := client.Call(0, &echoReq{N: 99})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
	close(gate)
	wg.Wait()
}

// TestConnDropMidFlightFailsCallers kills the server while requests are in
// flight and checks that every caller gets an error promptly — no hangs.
func TestConnDropMidFlightFailsCallers(t *testing.T) {
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", netsim.HandlerFunc(func(req any) (any, error) {
		entered <- struct{}{}
		<-gate
		return &echoResp{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	defer client.Close()
	client.ConnsPerPeer = 1
	client.Window = 16

	const calls = 8
	done := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			_, err := client.Call(0, &echoReq{N: i})
			done <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		<-entered
	}

	// Close the server with the handlers still blocked: callers must fail
	// even though their responses will never be written.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for i := 0; i < calls; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("call succeeded after connection drop")
			}
			if !errors.Is(err, netsim.ErrUnreachable) {
				t.Fatalf("want ErrUnreachable, got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("caller hung after connection drop")
		}
	}
	close(gate) // let the blocked handlers finish so Close can return
	<-closed
}

// TestReconnectAfterDrop checks that a client whose connection died re-dials
// transparently on the next call.
func TestReconnectAfterDrop(t *testing.T) {
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		return &echoResp{N: req.(*echoReq).N}, nil
	}))
	client.ConnsPerPeer = 1
	if _, err := client.Call(0, &echoReq{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Kill the server-side connection out from under the client.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// The next call may race the teardown; it must succeed within a retry
	// or two because the client replaces dead connections lazily.
	var err error
	for i := 0; i < 10; i++ {
		if _, err = client.Call(0, &echoReq{N: 2}); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("client did not recover after connection drop: %v", err)
	}
}

// TestServerInflightBoundsConcurrency checks the server half of
// backpressure: with Inflight=2 the read loop stops consuming frames, so
// handler concurrency never exceeds the bound even though the client's
// window is wide open.
func TestServerInflightBoundsConcurrency(t *testing.T) {
	var inHandler atomic.Int64
	var peak atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{ln: ln, handler: netsim.HandlerFunc(func(req any) (any, error) {
		cur := inHandler.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inHandler.Add(-1)
		return &echoResp{N: req.(*echoReq).N}, nil
	}), conns: make(map[net.Conn]struct{}), Inflight: 2}
	srv.wg.Add(1)
	go srv.acceptLoop()
	defer srv.Close()

	client := NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	defer client.Close()
	client.ConnsPerPeer = 1
	client.Window = 32

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call(0, &echoReq{N: i}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("handler concurrency %d exceeded server Inflight 2", p)
	}
}

// TestNonPreambleConnectionIsClosed: a connection that opens with anything
// but the frame preamble (here: what a v1 client used to send, a bare length
// prefix) gets no reply, only EOF, and the server goes on serving others.
func TestNonPreambleConnectionIsClosed(t *testing.T) {
	client, srv := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		return &echoResp{N: req.(*echoReq).N}, nil
	}))
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 16}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want EOF from the server, got n=%d err=%v", n, err)
	}
	resp, err := client.Call(0, &echoReq{N: 8})
	if err != nil || resp.(*echoResp).N != 8 {
		t.Fatalf("echo after a refused connection: %v %v", resp, err)
	}
}

// TestHandlerErrorOverMux checks that application-level errors ride the
// error flag without killing the connection.
func TestHandlerErrorOverMux(t *testing.T) {
	var n atomic.Int64
	client, _ := startEcho(t, netsim.HandlerFunc(func(req any) (any, error) {
		if n.Add(1)%2 == 1 {
			return nil, errors.New("odd call")
		}
		return &echoResp{N: 0}, nil
	}))
	if _, err := client.Call(0, &echoReq{}); err == nil || err.Error() != "odd call" {
		t.Fatalf("want handler error, got %v", err)
	}
	// The connection survived the error: the next call works.
	if _, err := client.Call(0, &echoReq{}); err != nil {
		t.Fatalf("connection did not survive handler error: %v", err)
	}
}
