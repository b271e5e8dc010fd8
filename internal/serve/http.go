// HTTP surface of the serve daemon. Ingest speaks the JSONL trace stream
// wire format line by line, so the same file tracegen writes (or any client
// emitting records) can be POSTed verbatim — header line included.
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"reqsched/internal/ratio"
	"reqsched/internal/trace"
)

// ServeHTTP routes the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/requests" && r.Method == http.MethodPost:
		s.handleIngest(w, r)
	case r.URL.Path == "/v1/metrics" && r.Method == http.MethodGet:
		s.handleMetrics(w, r)
	case r.URL.Path == "/v1/drain" && r.Method == http.MethodPost:
		s.handleDrain(w)
	case r.URL.Path == "/v1/healthz" && r.Method == http.MethodGet:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

// ingestReply is the JSON body of every ingest response. Accepted counts the
// records admitted before the first rejection; Offset names the byte offset
// of the offending line within the request body, so clients can resume a
// partial upload exactly like a torn-tail trace file.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
	Offset   *int64 `json:"offset,omitempty"`
}

// ingestBatchSize is how many records one ingest connection decodes before
// admitting them under a single engine-lock acquisition. Admission order and
// verdicts do not depend on it — batching only changes how often the lock is
// taken.
const ingestBatchSize = 256

// ingestBatch is one connection's pooled decode buffer: up to ingestBatchSize
// records plus each line's byte offset. Record slots keep their Alts capacity
// across batches and connections, so a warm daemon decodes without per-line
// allocation; admission copies the alternatives out.
type ingestBatch struct {
	recs []trace.StreamRecord
	offs []int64
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBatch) }}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(r.Body)
	var off int64
	accepted := 0
	fail := func(status int, lineOff int64, format string, args ...any) {
		rep := ingestReply{Accepted: accepted, Error: fmt.Sprintf(format, args...)}
		if status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge {
			rep.Offset = &lineOff
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		}
		writeJSON(w, status, rep)
	}

	batch := ingestPool.Get().(*ingestBatch)
	defer func() {
		batch.recs = batch.recs[:0]
		batch.offs = batch.offs[:0]
		ingestPool.Put(batch)
	}()
	var shard *queueShard
	if s.sq != nil {
		shard = s.sq.pick()
	}
	// admit pushes the decoded batch through admission — one engine-lock
	// acquisition for the whole batch under the virtual clock, the lock-free
	// shard path under the wall clock. Record-at-a-time verdicts and order
	// are preserved exactly; on a rejection it reports the failing record and
	// everything admitted stays.
	admit := func() (trace.StreamRecord, int64, admitVerdict) {
		n := 0
		verdict := admitOK
		if shard != nil {
			for _, rec := range batch.recs {
				if verdict = s.admitStriped(rec, shard); verdict != admitOK {
					break
				}
				n++
			}
		} else {
			s.mu.Lock()
			for _, rec := range batch.recs {
				if verdict = s.admitLocked(rec); verdict != admitOK {
					break
				}
				n++
			}
			s.mu.Unlock()
		}
		accepted += n
		var failRec trace.StreamRecord
		var failOff int64
		if verdict != admitOK {
			failRec, failOff = batch.recs[n], batch.offs[n]
		}
		batch.recs = batch.recs[:0]
		batch.offs = batch.offs[:0]
		return failRec, failOff, verdict
	}
	failVerdict := func(rec trace.StreamRecord, lineOff int64, verdict admitVerdict) {
		switch verdict {
		case admitDraining:
			fail(http.StatusServiceUnavailable, lineOff, "server is draining")
		case admitQueueFull:
			fail(http.StatusTooManyRequests, lineOff,
				"arrival queue full (%d)", s.cfg.QueueCap)
		case admitOutOfOrder:
			fail(http.StatusBadRequest, lineOff,
				"arrival round %d is already closed (next round %d)", rec.T, s.nextRound())
		case admitExpired:
			fail(http.StatusBadRequest, lineOff,
				"record expired on arrival: deadline %d before round %d", rec.Deadline(), s.nextRound())
		case admitWindow:
			fail(http.StatusBadRequest, lineOff,
				"window %d exceeds server maximum %d", rec.D, s.cfg.MaxD)
		}
	}

	sawHeader := false
	index := 0
	for {
		line, next, err := trace.ScanJSONLineSlice(br, off)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Intact lines before the failure still admit (a rejection among
			// them takes precedence — the client resolves it first).
			if rec, failOff, v := admit(); v != admitOK {
				failVerdict(rec, failOff, v)
				return
			}
			// A torn final line: the client got cut off mid-record. Reject
			// the tail but keep everything before it.
			if torn, ok := err.(*trace.TornTail); ok {
				fail(http.StatusBadRequest, torn.Offset, "torn final line (no newline)")
				return
			}
			// A line past trace.MaxLineBytes was discarded without being
			// buffered; ingest stops there, as for any rejected line.
			if long, ok := err.(*trace.LineTooLong); ok {
				fail(http.StatusRequestEntityTooLarge, long.Offset,
					"line longer than %d bytes", trace.MaxLineBytes)
				return
			}
			fail(http.StatusBadRequest, off, "read: %v", err)
			return
		}
		lineOff := off
		off = next
		// Extend by one slot, reviving a previous batch's slot (and its Alts
		// buffer) when capacity allows.
		if len(batch.recs) < cap(batch.recs) {
			batch.recs = batch.recs[:len(batch.recs)+1]
		} else {
			batch.recs = append(batch.recs, trace.StreamRecord{})
		}
		if err := trace.DecodeStreamRecordInto(&batch.recs[len(batch.recs)-1], line, s.cfg.N, s.cfg.D, index); err != nil {
			batch.recs = batch.recs[:len(batch.recs)-1]
			// A leading stream header is allowed (so a trace file POSTs
			// verbatim) but must match the daemon's contract. Only a line
			// that is not a record can be one, so the header parse stays
			// off the per-record path.
			if !sawHeader && index == 0 {
				if n, d, ok := parseHeader(line); ok {
					sawHeader = true
					if n != s.cfg.N || d != s.cfg.D {
						fail(http.StatusBadRequest, lineOff,
							"stream header n=%d d=%d does not match server n=%d d=%d",
							n, d, s.cfg.N, s.cfg.D)
						return
					}
					continue
				}
			}
			if rec, failOff, v := admit(); v != admitOK {
				failVerdict(rec, failOff, v)
				return
			}
			s.countReject(&s.rej.Malformed)
			fail(http.StatusBadRequest, lineOff, "%v", err)
			return
		}
		batch.offs = append(batch.offs, lineOff)
		index++
		if len(batch.recs) >= ingestBatchSize {
			if rec, failOff, v := admit(); v != admitOK {
				failVerdict(rec, failOff, v)
				return
			}
		}
	}
	if rec, failOff, v := admit(); v != admitOK {
		failVerdict(rec, failOff, v)
		return
	}
	writeJSON(w, http.StatusOK, ingestReply{Accepted: accepted})
}

// parseHeader reports whether line is a bare stream header — an object with
// "n" and no "alts" (absent or null). A record needs at least one
// alternative, so no line is both.
func parseHeader(line []byte) (n, d int, ok bool) {
	var h struct {
		N    int   `json:"n"`
		D    int   `json:"d"`
		Alts []int `json:"alts"`
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return 0, 0, false
	}
	if h.Alts != nil || h.N == 0 {
		return 0, 0, false
	}
	return h.N, h.D, true
}

// nextRound is the earliest arrival round still admitted: past every simulated
// round and, under the virtual clock, not before the open batch's round.
func (s *Server) nextRound() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(s.batchT, s.st.Round())
}

// retryAfter estimates (in whole seconds, minimum 1) when the queue will
// have drained. The n resources serve at most n queued records per round, so
// a backlog of depth q needs ceil(q/n) rounds; hinting a single round
// regardless of depth (the old behavior) invites a retry stampede exactly
// when the daemon is most loaded. Takes s.mu itself: the ingest failure path
// calls it after releasing the lock.
func (s *Server) retryAfter() int {
	if s.cfg.RoundDur <= 0 {
		return 1
	}
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	depth += s.stripedDepth()
	rounds := (depth + s.cfg.N - 1) / s.cfg.N
	if rounds < 1 {
		rounds = 1
	}
	secs := int(math.Ceil(float64(rounds) * s.cfg.RoundDur.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, m)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleDrain(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, s.Drain())
}

// formatFloat renders a ratio for the text exposition format; Prometheus
// spells infinities "+Inf"/"-Inf".
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'f', 4, 64)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writePrometheus renders the snapshot in the Prometheus text exposition
// format — hand-rolled, since the daemon takes no dependencies beyond the
// standard library.
func writePrometheus(w io.Writer, m Metrics) {
	g := func(name string, v any, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	g("reqsched_round", m.Round, "Next round the engine will simulate.")
	g("reqsched_requests_total", m.Requests, "Requests admitted to the engine.")
	g("reqsched_fulfilled_total", m.Fulfilled, "Requests served within their window.")
	g("reqsched_expired_total", m.Expired, "Requests that ran out their window.")
	g("reqsched_pending", m.Pending, "Live requests awaiting service.")
	g("reqsched_queue_depth", m.QueueDepth, "Arrivals queued for the next round.")
	fmt.Fprintf(w, "# HELP reqsched_rejected_total Records rejected at ingest.\n# TYPE reqsched_rejected_total counter\n")
	for _, rc := range []struct {
		reason string
		n      int
	}{
		{"malformed", m.Rejected.Malformed},
		{"queue_full", m.Rejected.QueueFull},
		{"expired", m.Rejected.Expired},
		{"draining", m.Rejected.Draining},
	} {
		fmt.Fprintf(w, "reqsched_rejected_total{reason=%q} %d\n", rc.reason, rc.n)
	}
	fmt.Fprintf(w, "# HELP reqsched_resource_served_total Fulfillments per resource.\n# TYPE reqsched_resource_served_total counter\n")
	for i, c := range m.Resources {
		fmt.Fprintf(w, "reqsched_resource_served_total{resource=\"%d\"} %d\n", i, c)
	}
	if len(m.Occupancy) > 0 {
		fmt.Fprintf(w, "# HELP reqsched_resource_occupancy Busy capacity units per resource at the current round.\n# TYPE reqsched_resource_occupancy gauge\n")
		for i, c := range m.Occupancy {
			fmt.Fprintf(w, "reqsched_resource_occupancy{resource=\"%d\"} %d\n", i, c)
		}
	}
	if m.Latency.Samples > 0 {
		fmt.Fprintf(w, "# HELP reqsched_latency_rounds Service latency in rounds.\n# TYPE reqsched_latency_rounds summary\n")
		for _, q := range []struct {
			q string
			v int
		}{{"0.5", m.Latency.P50}, {"0.9", m.Latency.P90}, {"0.99", m.Latency.P99}} {
			fmt.Fprintf(w, "reqsched_latency_rounds{quantile=%q} %d\n", q.q, q.v)
		}
		fmt.Fprintf(w, "reqsched_latency_rounds_count %d\n", m.Latency.Samples)
		g("reqsched_latency_overflow_total", m.Latency.Overflow, "Latency samples clamped into the last bucket.")
		e := 0
		if m.Latency.Exact {
			e = 1
		}
		g("reqsched_latency_exact", e, "1 while no latency sample has been clamped (quantiles are exact).")
	}
	g("reqsched_segments_closed_total", m.Rolling.Closed, "Time segments sealed at clean cuts.")
	g("reqsched_segments_solved_total", m.Rolling.Solved, "Segments whose offline optimum is folded in.")
	g("reqsched_rolling_opt_total", m.Rolling.Opt, "Offline optimum over solved segments.")
	g("reqsched_rolling_alg_total", m.Rolling.Alg, "Strategy fulfillments over solved segments.")
	g("reqsched_rolling_competitive_ratio", formatFloat(ratio.Measurement{OPT: m.Rolling.Opt, ALG: m.Rolling.Alg}.Ratio()), "OPT/ALG over solved segments (+Inf when starved).")
	b := 0
	if m.Draining {
		b = 1
	}
	g("reqsched_draining", b, "1 while the server refuses new records.")
}
