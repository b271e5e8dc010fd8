package grid_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reqsched/internal/grid"
	"reqsched/internal/grid/chaos"
	"reqsched/internal/ratio"
	"reqsched/internal/trace"
)

// startWorker boots one in-process TCP gridworker on an ephemeral port and
// returns its address. The worker is stopped (listener and live connections
// closed) on test cleanup.
func startWorker(t *testing.T, hb time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		grid.ServeWorker(ctx, ln, hb, nil, io.Discard)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

func startWorkers(t *testing.T, n int, hb time.Duration) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startWorker(t, hb)
	}
	return addrs
}

// tcpOpts returns fast-reacting supervisor options running on the given TCP
// workers, with an optional armed link fault.
func tcpOpts(addrs []string, link *chaos.LinkFaults) grid.Options {
	return grid.Options{
		Transport: &grid.TCPTransport{
			Addrs:       addrs,
			Link:        link,
			DialTimeout: 5 * time.Second,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
		},
		JobTimeout:  30 * time.Second,
		Heartbeat:   2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// requireCleanJournal asserts the journal at path holds exactly one verified
// record per cell, matching the clean measurements — undamaged, no
// duplicates, no poison.
func requireCleanJournal(t *testing.T, path string, jobs []grid.Job, want []ratio.Measurement) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, scan, err := grid.ReadJournal(f)
	f.Close()
	if err != nil || scan.Skipped > 0 || scan.TornOffset >= 0 {
		t.Fatalf("journal damaged: err=%v scan=%+v", err, scan)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("journal holds %d records, want %d (one per cell)", len(recs), len(jobs))
	}
	byID := make(map[string]grid.Record, len(recs))
	for _, r := range recs {
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		byID[r.ID] = r
	}
	if len(byID) != len(jobs) {
		t.Fatalf("journal holds %d distinct cells, want %d", len(byID), len(jobs))
	}
	for i, job := range jobs {
		if got := byID[job.ID].M.ToMeasurement(); got != want[i] {
			t.Fatalf("journaled cell %d differs: %+v vs %+v", i, got, want[i])
		}
	}
}

func TestTCPSupervisorMatchesInProcess(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	for _, n := range []int{1, 2} {
		addrs := startWorkers(t, n, 20*time.Millisecond)
		rep, err := grid.Run(context.Background(), jobs, tcpOpts(addrs, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if !rep.AllDone() || len(rep.Failures) != 0 || len(rep.LostHosts) != 0 {
			t.Fatalf("workers=%d: incomplete grid: %s", n, rep.FailureReport())
		}
		requireSameMeasurements(t, want, rep.Measurements, fmt.Sprintf("tcp workers=%d", n))
	}
}

// TestTCPLinkFaultSchedules is the network half of the single-fault property:
// ANY single link fault — connection dropped, silently stalled, truncated
// mid-message, or a host partitioned away — at any protocol message position
// must leave the journal identical to the clean in-process run, one verified
// record per cell, with the grid completing on whatever workers survive.
func TestTCPLinkFaultSchedules(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	type fault struct {
		mode string
		msg  int
		link int
	}
	var faults []fault
	for msg := 0; msg < 3; msg++ {
		faults = append(faults, fault{chaos.LinkDrop, msg, 0}, fault{chaos.LinkTrunc, msg, 0})
	}
	faults = append(faults,
		fault{chaos.LinkStall, 0, 0},
		fault{chaos.LinkStall, 1, 0},
		fault{chaos.LinkPartition, 1, 1},
	)
	for _, f := range faults {
		f := f
		t.Run(fmt.Sprintf("%s_at_%d_link_%d", f.mode, f.msg, f.link), func(t *testing.T) {
			t.Parallel()
			addrs := startWorkers(t, 2, 20*time.Millisecond)
			jpath := filepath.Join(t.TempDir(), "journal.jsonl")
			j, done, _, err := grid.OpenJournal(jpath, false)
			if err != nil {
				t.Fatal(err)
			}
			opts := tcpOpts(addrs, &chaos.LinkFaults{Mode: f.mode, Msg: f.msg, Link: f.link})
			if f.mode == chaos.LinkStall {
				// Tight liveness so the silent link is reaped quickly.
				opts.Heartbeat = 300 * time.Millisecond
			}
			opts.Journal = j
			opts.Done = done
			rep, err := grid.Run(context.Background(), jobs, opts)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			if !rep.AllDone() || len(rep.Failures) != 0 {
				t.Fatalf("incomplete grid under link fault: %s", rep.FailureReport())
			}
			requireSameMeasurements(t, want, rep.Measurements, "link-faulted grid")
			if f.mode == chaos.LinkPartition {
				if len(rep.LostHosts) != 1 || rep.LostHosts[0] != addrs[f.link] {
					t.Fatalf("partition must name the lost host %s, got %v", addrs[f.link], rep.LostHosts)
				}
			} else if rep.Retried < 1 {
				t.Fatal("link fault did not cost a retry (did it fire?)")
			}
			requireCleanJournal(t, jpath, jobs, want)
		})
	}
}

// TestTCPWorkerRestartReconnects kills the worker process mid-sweep and
// restarts it on the same address: the transport's backoff redial must find
// the fresh process, re-handshake, and finish the grid — no lost hosts, no
// failed cells.
func TestTCPWorkerRestartReconnects(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		grid.ServeWorker(wctx, ln, 20*time.Millisecond, nil, io.Discard)
	}()

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var once sync.Once
	var restartErr atomic.Value
	tr := &grid.TCPTransport{
		Addrs:       []string{addr},
		DialTimeout: 5 * time.Second,
		Redials:     40,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MsgHook: func(a string, msg int) {
			if msg != 3 {
				return
			}
			once.Do(func() {
				// Kill the worker process and bring a new one up on the same
				// address — synchronously, so the supervisor's redials find
				// it. The port may linger briefly after close; retry the bind.
				wcancel()
				<-wdone
				var ln2 net.Listener
				for i := 0; i < 200; i++ {
					var lerr error
					if ln2, lerr = net.Listen("tcp", addr); lerr == nil {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if ln2 == nil {
					restartErr.Store(fmt.Errorf("could not rebind %s", addr))
					return
				}
				go grid.ServeWorker(ctx2, ln2, 20*time.Millisecond, nil, io.Discard)
			})
		},
	}
	opts := tcpOpts(nil, nil)
	opts.Transport = tr
	rep, err := grid.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e := restartErr.Load(); e != nil {
		t.Fatal(e)
	}
	if !rep.AllDone() || len(rep.Failures) != 0 || len(rep.LostHosts) != 0 {
		t.Fatalf("grid did not survive the worker restart: %s", rep.FailureReport())
	}
	requireSameMeasurements(t, want, rep.Measurements, "restarted worker")
	if rep.Retried < 1 {
		t.Fatal("restart did not cost a retry (did the kill fire?)")
	}
}

// TestTCPAllHostsLostFailsExplicitly partitions the only worker away: the
// remaining cells must fail explicitly — naming the lost host — while every
// cell completed before the partition stays journaled and correct.
func TestTCPAllHostsLostFailsExplicitly(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	addrs := startWorkers(t, 1, 20*time.Millisecond)
	rep, err := grid.Run(context.Background(), jobs,
		tcpOpts(addrs, &chaos.LinkFaults{Mode: chaos.LinkPartition, Msg: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllDone() {
		t.Fatal("grid claims completion with its only host partitioned away")
	}
	if len(rep.LostHosts) != 1 || rep.LostHosts[0] != addrs[0] {
		t.Fatalf("lost hosts %v, want [%s]", rep.LostHosts, addrs[0])
	}
	if len(rep.Failures) == 0 {
		t.Fatal("no explicit failures for the stranded cells")
	}
	failed := make(map[int]bool)
	for _, f := range rep.Failures {
		if !strings.Contains(f.Err, "all worker hosts lost") || !strings.Contains(f.Err, addrs[0]) {
			t.Fatalf("failure does not name the loss: %+v", f)
		}
		failed[f.Index] = true
	}
	for i := range jobs {
		switch {
		case rep.Done[i] && failed[i]:
			t.Fatalf("cell %d both done and failed", i)
		case !rep.Done[i] && !failed[i]:
			t.Fatalf("cell %d neither done nor failed", i)
		case rep.Done[i] && rep.Measurements[i] != want[i]:
			t.Fatalf("cell %d poisoned: %+v vs %+v", i, rep.Measurements[i], want[i])
		}
	}
	if rpt := rep.FailureReport(); !strings.Contains(rpt, "lost worker hosts: "+addrs[0]) {
		t.Fatalf("failure report does not name the lost host: %q", rpt)
	}
}

// TestTCPSupervisorKillAtEveryMessageBoundary is the network crash-resume
// property: kill the supervisor at every protocol message boundary of a
// remote sweep (including mid-network-read, with a torn tail on the journal),
// then resume against the same workers — the final journal must be a
// permutation of the uninterrupted run's lines, and the measurements
// identical.
func TestTCPSupervisorKillAtEveryMessageBoundary(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	dir := t.TempDir()

	// Uninterrupted journaled reference run.
	refPath := filepath.Join(dir, "ref.jsonl")
	j, done, _, err := grid.OpenJournal(refPath, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := grid.RunLocal(context.Background(), jobs, done, j, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	requireSameMeasurements(t, want, rep.Measurements, "reference run")
	refSorted := append([]string(nil), readLines(t, refPath)...)
	sort.Strings(refSorted)

	addrs := startWorkers(t, 2, 20*time.Millisecond)
	completedClean := false
	for k := 0; k < 200 && !completedClean; k++ {
		name := fmt.Sprintf("kill_at_msg_%d", k)
		path := filepath.Join(dir, name+".jsonl")
		j, done, _, err := grid.OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var total int64
		opts := tcpOpts(addrs, nil)
		opts.Transport.(*grid.TCPTransport).MsgHook = func(a string, msg int) {
			// The supervisor dies the instant global message k crosses any
			// link — between a network write and the corresponding read.
			if atomic.AddInt64(&total, 1) == int64(k)+1 {
				cancel()
			}
		}
		opts.Journal = j
		opts.Done = done
		_, runErr := grid.Run(ctx, jobs, opts)
		j.Close()
		killed := atomic.LoadInt64(&total) > int64(k)
		cancel()
		if !killed {
			// Message k was never reached: the run completed uninterrupted.
			// This is the loop's natural end.
			if runErr != nil {
				t.Fatalf("%s: clean run failed: %v", name, runErr)
			}
			completedClean = true
		} else if k%2 == 1 {
			// Odd boundaries also simulate the crash landing mid-append: tear
			// half of a not-yet-journaled record onto the journal tail.
			tearPendingRecord(t, path, refSorted)
		}

		// Resume with a fresh transport against the same workers.
		j2, done2, _, err := grid.OpenJournal(path, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts2 := tcpOpts(addrs, nil)
		opts2.Journal = j2
		opts2.Done = done2
		rep2, err := grid.Run(context.Background(), jobs, opts2)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		j2.Close()
		if !rep2.AllDone() || len(rep2.Failures) != 0 {
			t.Fatalf("%s: resume incomplete: %s", name, rep2.FailureReport())
		}
		requireSameMeasurements(t, want, rep2.Measurements, name)
		gotSorted := append([]string(nil), readLines(t, path)...)
		sort.Strings(gotSorted)
		if strings.Join(gotSorted, "") != strings.Join(refSorted, "") {
			t.Fatalf("%s: resumed journal is not a permutation of the reference:\n got %q\nwant %q",
				name, gotSorted, refSorted)
		}
	}
	if !completedClean {
		t.Fatal("no kill boundary let the run finish — runaway message count?")
	}
}

// tearPendingRecord appends the first half of a reference journal line whose
// record is not yet in the journal at path — the footprint of a supervisor
// crash mid-append. No-op when every record is already journaled.
func tearPendingRecord(t *testing.T, path string, refLines []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := grid.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(recs))
	for _, r := range recs {
		have[r.ID] = true
	}
	for _, line := range refLines {
		var rec grid.Record
		if json.Unmarshal([]byte(line), &rec) != nil || have[rec.ID] {
			continue
		}
		w, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteString(line[:len(line)/2]); err != nil {
			t.Fatal(err)
		}
		w.Close()
		return
	}
}

func TestTCPHandshakeVersionMismatch(t *testing.T) {
	// A worker speaking a future protocol: the transport must declare the
	// host lost with an error naming both versions, never retry into it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(nc)
			br.ReadBytes('\n')
			fmt.Fprintf(nc, `{"hello":{"proto":99}}`+"\n")
			nc.Close()
		}
	}()
	tr := &grid.TCPTransport{Addrs: []string{ln.Addr().String()}, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}
	_, err = tr.Dial(context.Background(), 0)
	var hl *grid.HostLost
	if !errors.As(err, &hl) {
		t.Fatalf("version mismatch must be a HostLost, got %v", err)
	}
	for _, wantSub := range []string{"version mismatch", "v99", fmt.Sprintf("v%d", grid.ProtoVersion)} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}

	// A supervisor speaking a future protocol against a real worker: the
	// worker must still answer with its own version (so the supervisor can
	// name both sides) and then hang up without serving jobs.
	addr := startWorker(t, 20*time.Millisecond)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(nc, `{"hello":{"proto":99,"peer":"supervisor"}}`+"\n")
	br := bufio.NewReader(nc)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Hello *struct {
			Proto int `json:"proto"`
		} `json:"hello"`
	}
	if err := json.Unmarshal(line, &h); err != nil || h.Hello == nil || h.Hello.Proto != grid.ProtoVersion {
		t.Fatalf("worker hello reply %q must carry proto %d", line, grid.ProtoVersion)
	}
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("worker kept talking to a mismatched supervisor")
	}
}

// TestTCPDuplicateResultDiscarded runs against a fake worker that re-sends
// the previous job's (already accepted) sealed record before each new result —
// the late-duplicate footprint of a retried job. At-most-once acceptance must
// discard and count every duplicate, journaling exactly one record per cell.
func TestTCPDuplicateResultDiscarded(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				if _, err := br.ReadBytes('\n'); err != nil {
					return
				}
				fmt.Fprintf(nc, `{"hello":{"proto":%d,"peer":"gridworker"}}`+"\n", grid.ProtoVersion)
				enc := json.NewEncoder(nc)
				var prev *grid.Record
				for {
					line, err := br.ReadBytes('\n')
					if err != nil {
						return
					}
					var in struct {
						Job *grid.Job `json:"job"`
					}
					if json.Unmarshal(line, &in) != nil || in.Job == nil {
						continue
					}
					rec := grid.Record{ID: in.Job.ID, M: grid.MeasOf(want[in.Job.Index])}
					rec.Seal()
					if prev != nil {
						enc.Encode(struct {
							Result *grid.Record `json:"result"`
						}{prev})
					}
					if enc.Encode(struct {
						Result *grid.Record `json:"result"`
					}{&rec}) != nil {
						return
					}
					prev = &rec
				}
			}()
		}
	}()

	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, done, _, err := grid.OpenJournal(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := tcpOpts([]string{ln.Addr().String()}, nil)
	opts.Journal = j
	opts.Done = done
	rep, err := grid.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !rep.AllDone() || len(rep.Failures) != 0 {
		t.Fatalf("incomplete grid: %s", rep.FailureReport())
	}
	requireSameMeasurements(t, want, rep.Measurements, "duplicating worker")
	if wantDup := len(jobs) - 1; rep.Duplicates != wantDup {
		t.Fatalf("accepted run discarded %d duplicates, want %d", rep.Duplicates, wantDup)
	}
	requireCleanJournal(t, jpath, jobs, want)
}

// byteRepeater is an endless stream of one byte.
type byteRepeater byte

func (b byteRepeater) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestTCPHelloLineTooLong sends a real worker a 64 MiB hello line with no
// newline: the worker must hang up without buffering the line — the whole
// exchange, client included, allocates far less than the line.
func TestTCPHelloLineTooLong(t *testing.T) {
	addr := startWorker(t, 20*time.Millisecond)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := io.Copy(nc, io.LimitReader(byteRepeater('x'), 64<<20)); err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).CloseWrite()
	reply, err := io.ReadAll(nc)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("worker did not close the connection: %v", err)
	}
	if len(reply) != 0 {
		t.Fatalf("worker answered an overlong hello with %q", reply)
	}
	grew := m1.TotalAlloc - m0.TotalAlloc
	if grew >= 8<<20 {
		t.Fatalf("a 64 MiB hello line allocated %d bytes, want < 8 MiB", grew)
	}
	t.Logf("a 64 MiB hello line allocated %d bytes", grew)
}

// lockedBuffer collects the supervisor's log lines from concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTCPWorkerReplyTooLong runs against fake workers whose reply is longer
// than trace.MaxLineBytes, once as the hello and once as a job's result: each
// reaches the supervisor as a permanent protocol error naming the line's byte
// offset, and the host is declared lost instead of redialed.
func TestTCPWorkerReplyTooLong(t *testing.T) {
	long := strings.Repeat("x", trace.MaxLineBytes+1) + "\n"
	hello := fmt.Sprintf(`{"hello":{"proto":%d,"peer":"gridworker"}}`+"\n", grid.ProtoVersion)
	fake := func(t *testing.T, reply func(nc net.Conn, br *bufio.Reader)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer nc.Close()
					br := bufio.NewReader(nc)
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					reply(nc, br)
				}()
			}
		}()
		return ln.Addr().String()
	}

	t.Run("hello", func(t *testing.T) {
		addr := fake(t, func(nc net.Conn, _ *bufio.Reader) { io.WriteString(nc, long) })
		tr := &grid.TCPTransport{Addrs: []string{addr}, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}
		_, err := tr.Dial(context.Background(), 0)
		var hl *grid.HostLost
		if !errors.As(err, &hl) {
			t.Fatalf("an overlong hello must be a HostLost, got %v", err)
		}
		if !strings.Contains(err.Error(), "byte offset 0 is longer than") {
			t.Fatalf("error %q does not name the line's offset", err)
		}
	})

	t.Run("result", func(t *testing.T) {
		addr := fake(t, func(nc net.Conn, br *bufio.Reader) {
			io.WriteString(nc, hello)
			if _, err := br.ReadBytes('\n'); err == nil { // the job
				io.WriteString(nc, long)
			}
			io.Copy(io.Discard, br)
		})
		var log lockedBuffer
		opts := tcpOpts([]string{addr}, nil)
		opts.Log = &log
		rep, err := grid.Run(context.Background(), testManifest(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AllDone() || len(rep.LostHosts) != 1 || rep.LostHosts[0] != addr {
			t.Fatalf("done %v, lost hosts %v; want the host lost and no cell done", rep.AllDone(), rep.LostHosts)
		}
		want := fmt.Sprintf("byte offset %d is longer than", len(hello))
		if !strings.Contains(log.String(), want) {
			t.Fatalf("supervisor log does not name the overlong line (%q):\n%s", want, log.String())
		}
	})
}
