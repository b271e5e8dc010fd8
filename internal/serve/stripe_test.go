package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/serve"
	"reqsched/internal/trace"
)

// wallBody builds one POST body of unstamped wall-clock records.
func wallBody(rng *rand.Rand, n, recs int) string {
	var sb strings.Builder
	for i := 0; i < recs; i++ {
		a := rng.Intn(n)
		c := rng.Intn(n - 1)
		if c >= a {
			c++
		}
		fmt.Fprintf(&sb, `{"alts":[%d,%d]}`+"\n", a, c)
	}
	return sb.String()
}

// driveWall replays the same deterministic session — one post per tick,
// repeated — against a server, returning the drained metrics. One connection
// per round keeps its records in one shard in send order, so the merged
// injection order is the send order whatever the stripe count; the rotating
// shard pick still walks every stripe across rounds.
func driveWall(t *testing.T, s *serve.Server, ts *httptest.Server, seed int64) serve.Metrics {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 12; round++ {
		code, rep, _ := post(t, ts, wallBody(rng, 4, 15))
		if code != http.StatusOK || rep.Accepted != 15 {
			t.Fatalf("round %d: status %d accepted %d (%s)", round, code, rep.Accepted, rep.Error)
		}
		s.Tick()
	}
	return drain(t, ts)
}

// TestStripedWallClockMatchesSingleQueue pins the sharding contract: a
// sequential client driving the striped wall-clock queue produces a schedule
// bit-identical to the single-queue path — same IDs, same fulfillments, same
// rolling ratio.
func TestStripedWallClockMatchesSingleQueue(t *testing.T) {
	base := serve.Config{N: 4, D: 3, KeepLog: true, QueueCap: 1 << 12}

	single := base
	single.Stripes = 1
	s1, ts1 := newServer(t, single)
	m1 := driveWall(t, s1, ts1, 99)

	striped := base
	striped.Stripes = 4
	s2, ts2 := newServer(t, striped)
	m2 := driveWall(t, s2, ts2, 99)

	r1, r2 := s1.FinalResult(), s2.FinalResult()
	if r1 == nil || r2 == nil {
		t.Fatal("missing final results")
	}
	if r1.Requests != r2.Requests || r1.Fulfilled != r2.Fulfilled || r1.Expired != r2.Expired {
		t.Fatalf("single %d/%d/%d vs striped %d/%d/%d",
			r1.Requests, r1.Fulfilled, r1.Expired, r2.Requests, r2.Fulfilled, r2.Expired)
	}
	if len(r1.Log) != len(r2.Log) {
		t.Fatalf("log length %d vs %d", len(r1.Log), len(r2.Log))
	}
	for i := range r1.Log {
		a, b := r1.Log[i], r2.Log[i]
		if a.Req.ID != b.Req.ID || a.Res != b.Res || a.Round != b.Round {
			t.Fatalf("fulfillment %d: (req %d, res %d, round %d) vs (req %d, res %d, round %d)",
				i, a.Req.ID, a.Res, a.Round, b.Req.ID, b.Res, b.Round)
		}
	}
	if m1.Rolling != m2.Rolling {
		t.Fatalf("rolling %+v vs %+v", m1.Rolling, m2.Rolling)
	}
}

// TestConcurrentStripedIngestRace hammers the striped wall-clock queue from 8
// goroutines while a ticker advances rounds and a drain cuts in mid-traffic —
// the race-detector target for the shard locks, the atomic depth/draining
// fast path, and the final-merge close protocol. Accounting must balance
// exactly: every accepted record is either fulfilled or expired, and no
// record is admitted after the shards close.
func TestConcurrentStripedIngestRace(t *testing.T) {
	s, ts := newServer(t, serve.Config{N: 4, D: 4, Stripes: 8, QueueCap: 1 << 14})
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
					strings.NewReader(wallBody(rng, 4, 20)))
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
	_, ts := newServer(t, serve.Config{N: 2, D: 2, Stripes: 4, QueueCap: 3})
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
