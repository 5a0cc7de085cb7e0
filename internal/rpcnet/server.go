package rpcnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"minuet/internal/netsim"
	"minuet/internal/wire"
)

// defaultServerInflight bounds concurrently-executing requests per muxed
// connection. The read loop stops pulling frames off the socket while at
// capacity, so an overloaded server pushes back through TCP flow control
// instead of buffering without bound.
const defaultServerInflight = 256

// Server serves a netsim.Handler over TCP. A connection opens with the wire
// preamble and then pipelines many requests, each handled on its own
// goroutine with responses written back in completion order. A connection
// that opens with anything else is closed without a reply.
type Server struct {
	ln      net.Listener
	handler netsim.Handler
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool                  // guarded by mu
	conns   map[net.Conn]struct{} // guarded by mu

	// Inflight caps concurrently-executing requests per
	// connection (default 256). Set before Serve only.
	Inflight int
}

// Serve starts serving handler on listener ln. It returns immediately;
// Close stops the server.
func Serve(ln net.Listener, handler netsim.Handler) *Server {
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{}), Inflight: defaultServerInflight}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience: listen on addr and serve handler.
func Listen(addr string, handler netsim.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, handler), nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn checks the connection preamble and runs the request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var first [wire.FramePreambleLen]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return
	}
	if _, err := wire.ParseFramePreamble(first[:]); err != nil {
		return // not this protocol, or a version this server does not speak
	}
	s.serveMux(conn)
}

// serveMux is the pipelined loop: frames are read continuously and each
// request runs on its own goroutine, bounded by Inflight. Responses carry
// the request's id and are written back in completion order, not arrival
// order — that reordering freedom is what lets one slow request stop
// blocking the connection.
func (s *Server) serveMux(conn net.Conn) {
	inflight := s.Inflight
	if inflight <= 0 {
		inflight = defaultServerInflight
	}
	sem := make(chan struct{}, inflight)
	var wmu sync.Mutex
	for {
		hdr, payload, err := readFrameMux(conn)
		if err != nil {
			return
		}
		// Blocking here (rather than shedding) is deliberate: the socket's
		// receive window fills and the client's own in-flight budget is the
		// backstop, so a slow server throttles its callers end to end.
		sem <- struct{}{}
		s.wg.Add(1)
		go func(hdr wire.FrameHeader, payload []byte) {
			defer s.wg.Done()
			defer func() { <-sem }()
			resp, herr := s.handle(payload)
			frame := newFrame()
			if err := encodePayload(frame, resp, herr); err != nil {
				herr = fmt.Errorf("rpcnet: response encode: %v", err)
				frame = newFrame()
				encodePayload(frame, nil, herr) //nolint:errcheck // an error payload cannot fail
			}
			var flags wire.FrameFlags
			if herr != nil {
				flags = wire.FrameFlagError
			}
			// A write failure means the connection died; the read loop will
			// observe it and exit, failing the peer's in-flight calls.
			_ = writeFrameMux(conn, &wmu, hdr.ID, flags, frame.Bytes())
		}(hdr, payload)
	}
}

// handle decodes one request payload and runs the handler on it. A payload
// that does not decode to a request fails this request alone.
func (s *Server) handle(payload []byte) (any, error) {
	req, herr, err := decodePayload(payload)
	switch {
	case err != nil:
		return nil, fmt.Errorf("rpcnet: bad request payload: %v", err)
	case herr != nil:
		return nil, errors.New("rpcnet: bad request payload: an error is not a request")
	}
	return s.handler.HandleRPC(req)
}

// Close stops accepting, closes all connections, and waits for in-flight
// request handlers to finish.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
