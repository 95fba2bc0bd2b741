package main

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	impir "github.com/impir/impir"
)

// wireStats counts what the servers' accepted connections carry. It is
// filled by countingListener, which sits between net.Listen and
// Server.Serve, so no proxy hop enters the measured path.
type wireStats struct {
	in      atomic.Int64 // bytes the servers read: queries, hellos, updates
	out     atomic.Int64 // bytes the servers wrote: answers
	accepts atomic.Int64 // connections accepted: initial dials plus redials
}

type wireSnapshot struct{ in, out, accepts int64 }

func (w *wireStats) snapshot() wireSnapshot {
	return wireSnapshot{w.in.Load(), w.out.Load(), w.accepts.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.in - b.in, a.out - b.out, a.accepts - b.accepts}
}

type countingListener struct {
	net.Listener
	w *wireStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.w.accepts.Add(1)
	return countingConn{c, l.w}, nil
}

type countingConn struct {
	net.Conn
	w *wireStats
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.in.Add(int64(n))
	return n, err
}

// Write counts the bytes before handing them to the socket, so by the
// time a client has read an answer its bytes are already counted and a
// single client's per-operation deltas are exact.
func (c countingConn) Write(p []byte) (int, error) {
	c.w.out.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.w.out.Add(int64(n - len(p)))
	return n, err
}

// deployment is one workload's servers, all in this process behind
// loopback TCP listeners.
type deployment struct {
	servers []*impir.Server
	wire    *wireStats
	d       impir.Deployment
	ring    int // every server's trace ring size
	// flip makes flipParty1 corrupt the first server of party 1.
	flip   bool
	party1 *impir.Server
}

func newDeployment(ring int) *deployment { return &deployment{wire: new(wireStats), ring: ring} }

// serve starts one server on a fresh loopback port and loads db into it;
// it returns the listen address and the time Server.Load took.
func (dep *deployment) serve(cfg impir.ServerConfig, db *impir.DB, party uint8) (string, time.Duration, error) {
	cfg.TraceRingSize = dep.ring
	srv, err := impir.NewServer(cfg)
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	if err := srv.Load(db); err != nil {
		srv.Close()
		return "", 0, err
	}
	load := time.Since(start)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", 0, err
	}
	if err := srv.Serve(countingListener{lis, dep.wire}, party); err != nil {
		lis.Close()
		srv.Close()
		return "", 0, err
	}
	dep.servers = append(dep.servers, srv)
	if party == 1 && dep.party1 == nil {
		dep.party1 = srv
	}
	return lis.Addr().String(), load, nil
}

// flipParty1 flips one bit of record 0 on the first server of party 1,
// after the clients have connected and checked every replica's digest:
// from then on that party serves a database with a flipped byte.
func (dep *deployment) flipParty1() error {
	rec := append([]byte(nil), dep.party1.Database().Record(0)...)
	rec[0] ^= 1
	return dep.party1.Update(map[uint64][]byte{0: rec})
}

func (dep *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range dep.servers {
		srv.Shutdown(ctx)
	}
}

// queueStats sums the scheduler counters of every server.
func (dep *deployment) queueStats() (dispatched, passes uint64, wait time.Duration) {
	for _, srv := range dep.servers {
		st := srv.QueueStats()
		dispatched += st.Dispatched
		passes += st.Passes
		wait += st.TotalWait
	}
	return
}
