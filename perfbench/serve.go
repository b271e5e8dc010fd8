package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/serve"
	"reqsched/internal/trace"
)

// recordsPerPost is the fixed number of records every ingest POST carries.
const recordsPerPost = 256

// serveStream is one seed's generated traffic and the values a correct
// daemon must report after ingesting all of it.
type serveStream struct {
	tr     *core.Trace
	chunks [][]byte // POST bodies, recordsPerPost JSONL records each
	counts []int    // records per chunk
	want   serveExpect
}

type serveExpect struct {
	requests, fulfilled, expired, opt int
}

// buildServeStream generates the workload's trace, encodes it as POST
// bodies (records only, no stream header) and computes the expected
// results with core.Run and offline.Optimum.
func buildServeStream(w serveWorkload, seed int64) (*serveStream, error) {
	p := w.params.Clone()
	p["seed"] = registry.IntVal(seed)
	tr, err := registry.GenerateWorkload(w.source, p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteStream(&buf, tr); err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	lines = lines[1 : len(lines)-1] // drop the header and the empty tail
	ss := &serveStream{tr: tr}
	for i := 0; i < len(lines); i += recordsPerPost {
		j := min(i+recordsPerPost, len(lines))
		ss.chunks = append(ss.chunks, bytes.Join(lines[i:j], nil))
		ss.counts = append(ss.counts, j-i)
	}
	strat, err := registry.NewStrategySpec(w.strategy)
	if err != nil {
		return nil, err
	}
	res := core.Run(strat, tr)
	ss.want = serveExpect{
		requests:  tr.NumRequests(),
		fulfilled: res.Fulfilled,
		expired:   res.Expired,
		opt:       offline.Optimum(tr),
	}
	return ss, nil
}

// check compares a drained daemon's totals with the expectation.
func (want serveExpect) check(m serve.Metrics) error {
	switch {
	case m.Requests != want.requests:
		return fmt.Errorf("drained requests %d, sent %d", m.Requests, want.requests)
	case m.Fulfilled != want.fulfilled || m.Expired != want.expired:
		return fmt.Errorf("drained fulfilled/expired %d/%d, core.Run %d/%d",
			m.Fulfilled, m.Expired, want.fulfilled, want.expired)
	case m.Rolling.Opt != want.opt:
		return fmt.Errorf("rolling OPT %d, offline.Optimum %d", m.Rolling.Opt, want.opt)
	case m.Rolling.Alg != m.Fulfilled || m.Rolling.Solved != m.Rolling.Closed:
		return fmt.Errorf("rolling ratio not flushed: %+v", m.Rolling)
	}
	return nil
}

// session is one daemon lifetime: exec, ingest the whole stream in a closed
// loop beside an open-loop scraper, drain, SIGTERM, exit.
type session struct {
	setup   time.Duration // exec until /v1/healthz answers 200
	ingest  time.Duration // first POST until the drain reply
	wall    time.Duration // exec until the process has exited
	posts   []float64     // per-POST latency, ms
	scrapes []float64     // per-GET latency from its due time, ms
	late    []float64     // how late each GET started, ms
	drained serve.Metrics
	rssKB   int64 // peak RSS after the drain

	attempted, failed int
}

// daemon is a running cmd/serve child that has answered /v1/healthz.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	start   time.Time
	setup   time.Duration // exec until /v1/healthz answered 200
	stderr  *bytes.Buffer
	outDone chan struct{} // closed when stdout reaches EOF
	client  *http.Client  // the health check's connection, reused by the reader
}

// boot execs the daemon binary and waits until /v1/healthz answers 200.
func boot(bin string, w serveWorkload) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-virtual-clock",
		"-strategy", w.strategy, "-n", strconv.Itoa(w.n()), "-d", strconv.Itoa(w.d()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, outDone: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}}
	cmd.Stderr = d.stderr
	d.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	// The first stdout line names the bound address; the rest is read to EOF
	// so the daemon never blocks on a full pipe.
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.outDone)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			err := cmd.Wait()
			return nil, fmt.Errorf("daemon exited before listening: %v: %s", err, d.stderr.String())
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not report its address")
	}
	if err := waitHealthy(d.client, d.base+"/v1/healthz"); err != nil {
		d.kill()
		return nil, err
	}
	d.setup = time.Since(d.start)
	return d, nil
}

// kill stops a daemon that failed and waits for it.
func (d *daemon) kill() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// stop sends SIGTERM, waits for the exit and returns the daemon's lifetime.
func (d *daemon) stop() (time.Duration, error) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	<-d.outDone
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("daemon exit: %v: %s", err, d.stderr.String())
	}
	return time.Since(d.start), nil
}

// peakRSSKB reads a live process's peak resident set size (VmHWM) in
// kilobytes. It is read from /proc rather than from the exit's rusage: a
// child's rusage Maxrss also covers the parent's address space up to the
// exec (os/exec starts children with vfork), so it would report the
// benchmark's own peak whenever that is the larger.
func peakRSSKB(pid int) (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runSession boots the daemon binary and drives one session. A returned
// error means the session could not be run at all; refused records, refused
// scrapes and a wrong drained result are counted in failed instead.
func runSession(bin string, w serveWorkload, ss *serveStream) (session, error) {
	var se session
	d, err := boot(bin, w)
	if err != nil {
		return se, err
	}
	se.setup = d.setup
	ingest := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer ingest.CloseIdleConnections()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sc scrapeLog
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc = scrapeLoop(stop, w.scrape, func() bool {
			resp, err := d.client.Get(d.base + "/v1/metrics")
			if err != nil {
				return false
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
	}()

	first := time.Now()
	for i, body := range ss.chunks {
		t0 := time.Now()
		accepted, ok := post(ingest, d.base+"/v1/requests", body)
		se.posts = append(se.posts, ms(time.Since(t0)))
		se.attempted += ss.counts[i]
		if !ok || accepted != ss.counts[i] {
			se.failed += ss.counts[i] - max(accepted, 0)
		}
	}
	close(stop)
	wg.Wait()
	se.scrapes, se.late = sc.lat, sc.late
	se.attempted += len(sc.lat)
	se.failed += sc.failed

	drained, err := drain(ingest, d.base+"/v1/drain")
	if err != nil {
		d.kill()
		return se, err
	}
	se.ingest = time.Since(first)
	se.drained = drained
	if err := ss.want.check(drained); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		se.failed += ss.want.requests
	}

	// The peak RSS is read after the drain reply, and SIGTERM sent only then;
	// the daemon's own drain is then a no-op and it exits once its listener
	// has shut down.
	if se.rssKB, err = peakRSSKB(d.cmd.Process.Pid); err != nil {
		d.kill()
		return se, err
	}
	ingest.CloseIdleConnections()
	se.wall, err = d.stop()
	return se, err
}

func waitHealthy(c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("daemon not healthy after 30s")
}

// post sends one ingest chunk and returns the accepted count from the reply.
func post(c *http.Client, url string, body []byte) (int, bool) {
	resp, err := c.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var rep struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return rep.Accepted, resp.StatusCode == http.StatusOK
}

func drain(c *http.Client, url string) (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := c.Post(url, "application/json", nil)
	if err != nil {
		return m, fmt.Errorf("drain: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("drain: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("drain: %w", err)
	}
	return m, nil
}

// scrapeLog is what an open-loop reader saw.
type scrapeLog struct {
	lat, late []float64 // ms from each read's due time to its end / its start
	failed    int
}

// scrapeLoop calls read every interval on a fixed schedule until stop is
// closed. Each read is timed from when it was due, so a stalled read also
// charges the reads queued behind it.
func scrapeLoop(stop <-chan struct{}, every time.Duration, read func() bool) scrapeLog {
	var out scrapeLog
	timer := time.NewTimer(every)
	defer timer.Stop()
	due := time.Now()
	for {
		due = due.Add(every)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		begin := time.Now()
		ok := read()
		end := time.Now()
		out.lat = append(out.lat, ms(end.Sub(due)))
		out.late = append(out.late, ms(begin.Sub(due)))
		if !ok {
			out.failed++
		}
	}
}

// serveStreams is how many streams a serve run cycles its sessions through,
// each generated from its own seed derived from -seed. The daemon's peak RSS
// depends on where its garbage collector runs relative to the end of the
// stream, which moves from stream to stream by up to half the peak; a median
// over several streams keeps one stream's luck out of the run's result.
const serveStreams = 6

// bootsPerSession is how many extra boot-only daemon lifetimes (exec,
// /v1/healthz, SIGTERM) a serve run makes after each session, so setup_s is
// a median over many boots.
const bootsPerSession = 3

// buildServeStreams builds the run's streams, one per CPU at a time.
func buildServeStreams(w serveWorkload, seed int64) ([]*serveStream, error) {
	streams := make([]*serveStream, serveStreams)
	errs := make([]error, serveStreams)
	next := make(chan int, serveStreams)
	for k := range streams {
		next <- k
	}
	close(next)
	var wg sync.WaitGroup
	for range workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				streams[k], errs[k] = buildServeStream(w, seed*serveStreams+int64(k))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// serveRun is the end-to-end run of a serve workload: daemon sessions back
// to back until the time budget is spent, cycling through the run's streams.
func serveRun(w serveWorkload, bin string, seed int64, budget time.Duration) (result, error) {
	var res result
	streams, err := buildServeStreams(w, seed)
	if err != nil {
		return res, err
	}
	var sessions []session
	var setup []float64
	begin := time.Now()
	for len(sessions) < len(streams) || time.Since(begin) < budget {
		se, err := runSession(bin, w, streams[len(sessions)%len(streams)])
		if err != nil {
			return res, err
		}
		sessions = append(sessions, se)
		setup = append(setup, se.setup.Seconds())
		for range bootsPerSession {
			d, err := boot(bin, w)
			if err != nil {
				return res, err
			}
			setup = append(setup, d.setup.Seconds())
			if _, err := d.stop(); err != nil {
				return res, err
			}
		}
	}

	var rps, rate, rss, posts, scrapes, late []float64
	for _, se := range sessions {
		rps = append(rps, float64(se.drained.Requests)/se.ingest.Seconds())
		rate = append(rate, 1/se.wall.Seconds())
		rss = append(rss, float64(se.rssKB)/1024)
		posts = append(posts, se.posts...)
		scrapes = append(scrapes, se.scrapes...)
		late = append(late, se.late...)
		res.Attempted += se.attempted
		res.Failed += se.failed
	}
	// The quality metrics sum over the streams' first sessions, which every
	// run has, so they are the same for a seed whatever the session count.
	var opt, alg, fulfilled, requests int
	for _, se := range sessions[:len(streams)] {
		m := se.drained
		opt, alg = opt+m.Rolling.Opt, alg+m.Rolling.Alg
		fulfilled, requests = fulfilled+m.Fulfilled, requests+m.Requests
	}
	res.set("setup_s", median(setup))
	res.set("ingest_rps", median(rps))
	res.set("cells_per_s", median(rate))
	res.set("post_p50_ms", quantile(posts, 0.5))
	res.set("post_p90_ms", quantile(posts, 0.9))
	res.set("metrics_p50_ms", quantile(scrapes, 0.5))
	res.set("opt_ratio", ratio.Measurement{OPT: opt, ALG: alg}.Ratio())
	res.set("fulfilled_frac", float64(fulfilled)/float64(requests))
	res.set("peak_rss_mb", quantile(rss, 1))
	fmt.Fprintf(os.Stderr, "perfbench: %d sessions over %d streams, %d boots; %d POSTs ms %s; %d scrapes ms %s; scraper late ms %s\n",
		len(sessions), len(streams), len(setup), len(posts), profile(posts), len(scrapes), profile(scrapes), profile(late))
	fmt.Fprintf(os.Stderr, "perfbench: setup ms %s; peak RSS MB %s\n", profile(scale(setup, 1000)), profile(rss))
	return res, nil
}

// profile renders a latency sample's quantiles for the human summary.
func profile(xs []float64) string {
	return fmt.Sprintf("p50 %.3f p75 %.3f p90 %.3f p99 %.3f max %.3f",
		quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 1))
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
