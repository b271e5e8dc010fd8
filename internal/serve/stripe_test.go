package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/serve"
	"reqsched/internal/strategies"
	"reqsched/internal/trace"
)

// wallBody builds one POST body of unstamped wall-clock records, passing each
// record's alternatives to add when it is non-nil.
func wallBody(rng *rand.Rand, n, recs int, add func(alts ...int)) string {
	var sb strings.Builder
	for i := 0; i < recs; i++ {
		a := rng.Intn(n)
		c := rng.Intn(n - 1)
		if c >= a {
			c++
		}
		fmt.Fprintf(&sb, `{"alts":[%d,%d]}`+"\n", a, c)
		if add != nil {
			add(a, c)
		}
	}
	return sb.String()
}

// TestStripedWallClockMatchesRun pins the sharded wall-clock queue against
// the batch engine: a sequential client posting once per tick produces a
// schedule bit-identical to core.Run on the trace whose round k holds the
// k-th POST's records in send order — same IDs, same fulfillments — and a
// rolling ratio equal to that trace's offline optimum.
func TestStripedWallClockMatchesRun(t *testing.T) {
	const n, d = 4, 3
	s, ts := newServer(t, serve.Config{N: n, D: d, KeepLog: true, QueueCap: 1 << 12})
	rng := rand.New(rand.NewSource(99))
	b := core.NewBuilder(n, d)
	for round := 0; round < 12; round++ {
		body := wallBody(rng, n, 15, func(alts ...int) { b.Add(round, alts...) })
		code, rep, _ := post(t, ts, body)
		if code != http.StatusOK || rep.Accepted != 15 {
			t.Fatalf("round %d: status %d accepted %d (%s)", round, code, rep.Accepted, rep.Error)
		}
		s.Tick()
	}
	m := drain(t, ts)
	tr := b.Build()

	got, want := s.FinalResult(), core.Run(strategies.NewBalance(), tr)
	if got == nil {
		t.Fatal("no final result after drain")
	}
	if got.Requests != want.Requests || got.Fulfilled != want.Fulfilled || got.Expired != want.Expired {
		t.Fatalf("daemon %d/%d/%d vs engine %d/%d/%d",
			got.Requests, got.Fulfilled, got.Expired, want.Requests, want.Fulfilled, want.Expired)
	}
	if len(got.Log) != len(want.Log) {
		t.Fatalf("log length %d vs %d", len(got.Log), len(want.Log))
	}
	for i := range got.Log {
		a, b := got.Log[i], want.Log[i]
		if a.Req.ID != b.Req.ID || a.Res != b.Res || a.Round != b.Round {
			t.Fatalf("fulfillment %d: (req %d, res %d, round %d) vs (req %d, res %d, round %d)",
				i, a.Req.ID, a.Res, a.Round, b.Req.ID, b.Res, b.Round)
		}
	}
	if opt := offline.Optimum(tr); m.Rolling.Opt != opt || m.Rolling.Alg != want.Fulfilled {
		t.Fatalf("rolling OPT/ALG %d/%d, trace %d/%d", m.Rolling.Opt, m.Rolling.Alg, opt, want.Fulfilled)
	}
}

// TestConcurrentStripedIngestRace hammers the striped wall-clock queue from 8
// goroutines while a ticker advances rounds and a drain cuts in mid-traffic —
// the race-detector target for the shard locks, the atomic depth/draining
// fast path, and the final-merge close protocol. Accounting must balance
// exactly: every accepted record is either fulfilled or expired, and no
// record is admitted after the shards close.
func TestConcurrentStripedIngestRace(t *testing.T) {
	s, ts := newServer(t, serve.Config{N: 4, D: 4, QueueCap: 1 << 14})
	const clients = 8
	var accepted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	tickerDone := make(chan struct{})

	go func() { // ticker, stopped after the clients finish
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Tick()
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 30; i++ {
				resp, err := http.Post(ts.URL+"/v1/requests", "application/jsonl",
					strings.NewReader(wallBody(rng, 4, 20, nil)))
				if err != nil {
					continue // connection cut by test shutdown
				}
				var rep ingestReply
				dec := io.LimitReader(resp.Body, 1<<16)
				if b, err := io.ReadAll(dec); err == nil {
					_ = unmarshalReply(b, &rep)
				}
				resp.Body.Close()
				accepted.Add(int64(rep.Accepted))
				if i == 15 && c == 0 {
					drain(t, ts) // drain mid-traffic from one client
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-tickerDone

	m := drain(t, ts)
	if int64(m.Requests) != accepted.Load() {
		t.Fatalf("server admitted %d, clients saw %d accepted", m.Requests, accepted.Load())
	}
	if m.Fulfilled+m.Expired != m.Requests || m.Pending != 0 {
		t.Fatalf("fulfilled %d + expired %d != requests %d (pending %d)",
			m.Fulfilled, m.Expired, m.Requests, m.Pending)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", m.QueueDepth)
	}
}

// TestStripedBackpressure pins the queue cap on the striped path: the atomic
// depth check answers 429 with Retry-After once the shards hold QueueCap
// records.
func TestStripedBackpressure(t *testing.T) {
	_, ts := newServer(t, serve.Config{N: 2, D: 2, QueueCap: 3})
	body := strings.Repeat(`{"alts":[0,1]}`+"\n", 5)
	code, rep, hdr := post(t, ts, body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if rep.Accepted != 3 {
		t.Fatalf("accepted %d, want the queue capacity 3", rep.Accepted)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	m := metrics(t, ts)
	if m.QueueDepth != 3 || m.Rejected.QueueFull != 1 {
		t.Fatalf("queue depth %d (want 3), queue_full rejections %d (want 1)", m.QueueDepth, m.Rejected.QueueFull)
	}
}

// unmarshalReply tolerates empty bodies from connections cut mid-shutdown.
func unmarshalReply(b []byte, rep *ingestReply) error {
	if len(b) == 0 {
		return nil
	}
	return json.Unmarshal(b, rep)
}

// streamBody serializes tr as a JSONL body, header included.
func streamBody(t *testing.T, tr *core.Trace) string {
	t.Helper()
	var sb strings.Builder
	if err := trace.WriteStream(&sb, tr); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
