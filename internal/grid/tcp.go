package grid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"reqsched/internal/grid/chaos"
	"reqsched/internal/trace"
)

// ProtoVersion is the gridworker wire protocol version. Both ends exchange it
// in the TCP handshake before any job flows; bump it whenever the JSONL
// job/record/heartbeat protocol changes shape, so a supervisor never feeds
// jobs to a worker that parses them differently.
const ProtoVersion = 1

// handshakeTimeout bounds the hello exchange on both sides: a peer that
// connects but never completes the handshake is dropped, not waited on.
const handshakeTimeout = 10 * time.Second

// helloLine is the handshake line both ends exchange on a fresh TCP
// connection: the supervisor speaks first, the worker answers. Each side
// reports its own protocol version; a mismatch is a permanent error (the
// host is marked lost), never a retry.
type helloLine struct {
	Hello *hello `json:"hello"`
}

type hello struct {
	Proto int    `json:"proto"`
	Peer  string `json:"peer,omitempty"`
}

// protoError is a protocol violation redialing cannot heal — a handshake
// version mismatch or a line longer than trace.MaxLineBytes. It is permanent:
// the host is marked lost, never retried.
type protoError struct{ err error }

func (e *protoError) Error() string { return e.err.Error() }
func (e *protoError) Unwrap() error { return e.err }

// readLine reads one protocol line from br, capped at trace.MaxLineBytes. off
// is the line's byte offset on the connection, which an overlong line's
// error names. The line aliases br's buffer until the next read.
func readLine(br *bufio.Reader, off int64) (line []byte, next int64, err error) {
	line, next, err = trace.ScanJSONLineSlice(br, off)
	var long *trace.LineTooLong
	if errors.As(err, &long) {
		err = &protoError{err}
	}
	return line, next, err
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// TCPTransport connects the supervisor to remote gridworkers listening on
// TCP (cmd/gridworker -listen), speaking the same JSONL protocol as the pipe
// transport behind a versioned handshake. One supervisor slot is pinned to
// each address. The robustness envelope remote links demand lives here:
// dial/read/write deadlines, exponential-backoff redial with seeded jitter
// (which is also what lets a restarted worker re-register: the next redial
// finds the new process and re-handshakes), and permanent host-loss
// declaration (*HostLost) once the redial budget is exhausted or the link is
// partitioned — at which point the supervisor requeues the host's in-flight
// jobs onto surviving workers.
//
// Deterministic link faults (chaos.LinkFaults) are injected here, at the
// message framing layer, so drop/stall/trunc/partition schedules exercise
// the exact read/write paths real link failures would hit.
type TCPTransport struct {
	// Addrs lists the worker endpoints ("host:port"); slot i dials
	// Addrs[i%len(Addrs)].
	Addrs []string
	// DialTimeout bounds one dial-plus-handshake attempt (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each line write and is the idle-read ceiling on the
	// supervisor side (default 2m; the per-job deadline and heartbeat
	// liveness reap hung jobs much earlier).
	IOTimeout time.Duration
	// Redials is how many consecutive dial attempts (with backoff) are made
	// before a host is declared lost (default 8).
	Redials int
	// BackoffBase and BackoffMax shape the redial backoff (defaults 100ms
	// and 5s); Seed seeds its jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64
	// Link arms one deterministic link fault (nil: none). The fault fires at
	// most once per transport; LinkPartition additionally marks its host
	// dead for the rest of the run.
	Link *chaos.LinkFaults
	// MsgHook, when non-nil, observes every protocol line crossing a link
	// (worker address, 0-based per-link message index). The chaos property
	// tests use it to kill the supervisor at exact message boundaries.
	MsgHook func(addr string, msg int)
	// Log receives transport diagnostics (nil: discard).
	Log io.Writer

	mu    sync.Mutex
	rng   *rand.Rand
	msgs  map[string]int    // per-address protocol message counters (survive redials)
	dead  map[string]string // hosts declared lost, with the reason
	fired bool              // the armed link fault already fired
}

func (t *TCPTransport) Slots() int { return len(t.Addrs) }

func (t *TCPTransport) log() io.Writer {
	if t.Log == nil {
		return io.Discard
	}
	return t.Log
}

func (t *TCPTransport) ioTimeout() time.Duration {
	if t.IOTimeout <= 0 {
		return 2 * time.Minute
	}
	return t.IOTimeout
}

func (t *TCPTransport) markDead(addr, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead == nil {
		t.dead = make(map[string]string)
	}
	if _, ok := t.dead[addr]; !ok {
		t.dead[addr] = reason
	}
}

func (t *TCPTransport) deadReason(addr string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reason, ok := t.dead[addr]
	return reason, ok
}

// stepMsg counts one protocol line crossing the link to addr and reports the
// armed fault mode if this is the message it fires at. Handshake lines are
// not counted: message 0 is the first job line.
func (t *TCPTransport) stepMsg(addr string) string {
	t.mu.Lock()
	if t.msgs == nil {
		t.msgs = make(map[string]int)
	}
	k := t.msgs[addr]
	t.msgs[addr]++
	var fault string
	if t.Link != nil && !t.fired && k == t.Link.Msg && t.linkIndex(addr) == t.Link.Link {
		t.fired = true
		fault = t.Link.Mode
	}
	hook := t.MsgHook
	t.mu.Unlock()
	if hook != nil {
		hook(addr, k)
	}
	return fault
}

// linkIndex maps an address back to its position in Addrs (the @link number
// of chaos specs). Callers hold t.mu.
func (t *TCPTransport) linkIndex(addr string) int {
	for i, a := range t.Addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

func (t *TCPTransport) redialBackoff(attempt int) time.Duration {
	base := t.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := t.BackoffMax
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	t.mu.Lock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.Seed))
	}
	j := time.Duration(t.rng.Int63n(int64(d)/2 + 1))
	t.mu.Unlock()
	return d + j
}

// Dial connects slot to its pinned worker address, retrying with backoff
// through transient failures. It returns *HostLost once the host is gone for
// good: already partitioned, unreachable past the redial budget, or speaking
// an incompatible protocol version.
func (t *TCPTransport) Dial(ctx context.Context, slot int) (WorkerConn, error) {
	if len(t.Addrs) == 0 {
		return nil, errors.New("grid: TCP transport has no worker addresses")
	}
	addr := t.Addrs[slot%len(t.Addrs)]
	redials := t.Redials
	if redials <= 0 {
		redials = 8
	}
	var lastErr error
	for attempt := 0; attempt < redials; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(t.redialBackoff(attempt))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if reason, dead := t.deadReason(addr); dead {
			return nil, &HostLost{Host: addr, Err: errors.New(reason)}
		}
		c, err := t.dialOnce(ctx, addr)
		if err == nil {
			return c, nil
		}
		var pe *protoError
		if errors.As(err, &pe) {
			// A version mismatch never heals by redialing.
			t.markDead(addr, err.Error())
			return nil, &HostLost{Host: addr, Err: err}
		}
		lastErr = err
		fmt.Fprintf(t.log(), "grid: dial %s (attempt %d/%d): %v\n", addr, attempt+1, redials, err)
	}
	reason := fmt.Sprintf("unreachable after %d dial attempts", redials)
	t.markDead(addr, reason)
	return nil, &HostLost{Host: addr, Err: fmt.Errorf("%s: %w", reason, lastErr)}
}

func (t *TCPTransport) dialOnce(ctx context.Context, addr string) (WorkerConn, error) {
	dialTO := t.DialTimeout
	if dialTO <= 0 {
		dialTO = 5 * time.Second
	}
	d := net.Dialer{Timeout: dialTO}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// Versioned handshake under its own deadline: we speak first, the worker
	// answers with its version.
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := writeLine(nc, helloLine{&hello{Proto: ProtoVersion, Peer: "supervisor"}}); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake write: %w", err)
	}
	br := bufio.NewReader(nc)
	line, off, err := readLine(br, 0)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake read: %w", err)
	}
	var h helloLine
	if err := json.Unmarshal(line, &h); err != nil || h.Hello == nil {
		nc.Close()
		return nil, fmt.Errorf("handshake: %q is not a hello line", bytes.TrimSpace(line))
	}
	if h.Hello.Proto != ProtoVersion {
		nc.Close()
		return nil, &protoError{fmt.Errorf("protocol version mismatch: worker speaks v%d, supervisor v%d", h.Hello.Proto, ProtoVersion)}
	}
	nc.SetDeadline(time.Time{})
	c := &tcpConn{t: t, addr: addr, nc: nc, br: br, off: off, lines: make(chan procLine, 4)}
	go c.pump()
	return c, nil
}

// tcpConn is one handshaken supervisor→worker connection.
type tcpConn struct {
	t         *TCPTransport
	addr      string
	nc        net.Conn
	br        *bufio.Reader
	off       int64 // byte offset of the next line on the connection
	lines     chan procLine
	closeOnce sync.Once
	stalled   atomic.Bool // a LinkStall fired: the link is silent but looks up
}

func (c *tcpConn) Addr() string           { return c.addr }
func (c *tcpConn) Lines() <-chan procLine { return c.lines }

func (c *tcpConn) Close() {
	c.closeOnce.Do(func() {
		c.nc.Close()
		// Drain the pump goroutine so it can exit; it closes c.lines when
		// the (now closed) socket stops yielding bytes.
		for range c.lines {
		}
	})
}

func (c *tcpConn) Send(job Job) error {
	line, err := json.Marshal(workerIn{Job: &job})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	switch c.t.stepMsg(c.addr) {
	case chaos.LinkDrop:
		c.nc.Close()
		return fmt.Errorf("grid: link to %s dropped (chaos)", c.addr)
	case chaos.LinkStall:
		// The job vanishes into the stalled link; the connection stays up and
		// silent, so the supervisor's heartbeat liveness must reap the slot.
		c.stalled.Store(true)
		return nil
	case chaos.LinkTrunc:
		// The supervisor dies mid-write: the worker reads a torn line and
		// must treat it as EOF, never as a job.
		c.nc.SetWriteDeadline(time.Now().Add(c.t.ioTimeout()))
		c.nc.Write(line[:len(line)/2])
		c.nc.Close()
		return nil
	case chaos.LinkPartition:
		c.nc.Close()
		c.t.markDead(c.addr, "network partition (chaos)")
		return fmt.Errorf("grid: link to %s partitioned (chaos)", c.addr)
	}
	if c.stalled.Load() {
		return nil
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.t.ioTimeout()))
	if _, err := c.nc.Write(line); err != nil {
		return fmt.Errorf("grid: write to %s: %w", c.addr, err)
	}
	return nil
}

// pump reads worker lines, injects read-side link faults at message
// boundaries, and feeds the supervisor's response channel. It is the only
// closer of c.lines.
func (c *tcpConn) pump() {
	defer close(c.lines)
	for {
		c.nc.SetReadDeadline(time.Now().Add(c.t.ioTimeout()))
		line, next, err := readLine(c.br, c.off)
		c.off = next
		if err != nil {
			// Stream end. A locally closed socket (recycle), a remote EOF and
			// a line torn by it all read as "worker gone" — the supervisor's
			// attempt loop reports "worker exited mid-job". Anything else
			// (reset, read deadline, an overlong line) is surfaced as a stream
			// error; an overlong line also marks the host lost.
			var torn *trace.TornTail
			if errors.Is(err, net.ErrClosed) || err == io.EOF || errors.As(err, &torn) {
				return
			}
			var pe *protoError
			if errors.As(err, &pe) {
				c.nc.Close()
				c.t.markDead(c.addr, pe.Error())
			}
			c.lines <- procLine{err: fmt.Errorf("read from %s: %w", c.addr, err)}
			return
		}
		switch c.t.stepMsg(c.addr) {
		case chaos.LinkDrop:
			c.nc.Close()
			return
		case chaos.LinkStall:
			c.stalled.Store(true)
			continue
		case chaos.LinkTrunc:
			// The worker died mid-write: deliver the torn prefix, which can
			// never parse, and end the stream.
			line = line[:len(line)/2]
			c.nc.Close()
		case chaos.LinkPartition:
			c.nc.Close()
			c.t.markDead(c.addr, "network partition (chaos)")
			return
		}
		if c.stalled.Load() {
			continue
		}
		var out workerOut
		if err := json.Unmarshal(line, &out); err != nil {
			c.lines <- procLine{err: fmt.Errorf("unparseable worker line: %w", err)}
			return
		}
		c.lines <- procLine{out: out}
	}
}

// ServeWorker is the TCP serving loop of cmd/gridworker -listen: it accepts
// supervisor connections, performs the versioned handshake on each, and runs
// the standard WorkerMain job loop over the socket — several supervisors (or
// several slots of one) can share a worker host concurrently. Process-level
// chaos faults (kill/stall/corrupt) apply per connection, exactly as they do
// per subprocess on the pipe transport. ServeWorker returns when ctx is
// cancelled (closing the listener and every live connection) or the listener
// fails.
func ServeWorker(ctx context.Context, ln net.Listener, hbInterval time.Duration, flt *chaos.Faults, log io.Writer) error {
	if log == nil {
		log = io.Discard
	}
	var mu sync.Mutex
	conns := make(map[net.Conn]bool)
	go func() {
		<-ctx.Done()
		ln.Close()
		mu.Lock()
		for nc := range conns {
			nc.Close()
		}
		mu.Unlock()
	}()
	var wg sync.WaitGroup
	for {
		nc, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("gridworker: accept: %w", err)
		}
		mu.Lock()
		conns[nc] = true
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := serveConn(nc, hbInterval, flt)
			nc.Close()
			mu.Lock()
			delete(conns, nc)
			mu.Unlock()
			if err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(log, "gridworker: %v: %v\n", nc.RemoteAddr(), err)
			}
		}()
	}
}

// serveConn handshakes one supervisor connection and serves its jobs.
func serveConn(nc net.Conn, hbInterval time.Duration, flt *chaos.Faults) error {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(nc)
	line, _, err := readLine(br, 0)
	if err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	var h helloLine
	if err := json.Unmarshal(line, &h); err != nil || h.Hello == nil {
		return fmt.Errorf("handshake: %q is not a hello line", bytes.TrimSpace(line))
	}
	// Always answer with our own version, so a mismatched supervisor can name
	// both sides in its error before we hang up.
	if err := writeLine(nc, helloLine{&hello{Proto: ProtoVersion, Peer: "gridworker"}}); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	if h.Hello.Proto != ProtoVersion {
		return fmt.Errorf("handshake: supervisor speaks protocol v%d, this worker v%d", h.Hello.Proto, ProtoVersion)
	}
	nc.SetDeadline(time.Time{})
	return WorkerMain(br, nc, hbInterval, flt)
}
