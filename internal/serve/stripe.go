// Striped wall-clock ingest. Under the wall clock a record's arrival round
// and engine ID are not determined at ingest — both are assigned at the next
// tick — so admission does not have to serialize on the engine mutex the way
// virtual-clock admission must. Each connection buffers validated records
// into one of GOMAXPROCS shards guarded by its own lock; the tick merges the
// shards (in shard order, IDs assigned at the merge) into the engine batch.
// With a single connection the merged order is the connection's send order,
// so a sequential client's schedule is bit-identical to core.Run on the trace
// whose round k holds the records posted before tick k; with concurrent
// connections the interleaving is arbitrary, as it is for any concurrent
// writers.
package serve

import (
	"sync"
	"sync/atomic"

	"reqsched/internal/core"
	"reqsched/internal/trace"
)

// queueShard is one stripe of the wall-clock arrival queue.
type queueShard struct {
	mu     sync.Mutex
	closed bool // set at the final merge; late admitters see it and reject
	recs   []*core.Request
}

// stripedQueue is the sharded arrival queue. depth tracks the total buffered
// across shards (the queue-cap check and the metrics gauge); next deals
// connections to shards round-robin.
type stripedQueue struct {
	depth  atomic.Int64
	next   atomic.Uint32
	shards []queueShard
}

func newStripedQueue(stripes int) *stripedQueue {
	return &stripedQueue{shards: make([]queueShard, stripes)}
}

// pick assigns an ingest connection a shard, round-robin.
func (sq *stripedQueue) pick() *queueShard {
	return &sq.shards[int(sq.next.Add(1)-1)%len(sq.shards)]
}

// stripedDepth returns the records buffered in shards (0 under the virtual
// clock).
func (s *Server) stripedDepth() int {
	if s.sq == nil {
		return 0
	}
	return int(s.sq.depth.Load())
}

// admitStriped validates rec on the lock-free fast path and buffers it in the
// connection's shard. Only rejections touch the engine mutex (for the
// counters); the admit itself takes the shard lock alone. The record joins
// the next tick's round; a client-side arrival stamp rec.T that already ran
// out its window is dead on arrival. The round mirror may lag the engine by a
// tick-in-progress, which only moves records whose expiry races the tick —
// the same records whose fate already depended on queue timing.
func (s *Server) admitStriped(rec trace.StreamRecord, shard *queueShard) admitVerdict {
	if s.closedIn.Load() {
		s.countReject(&s.rej.Draining)
		return admitDraining
	}
	if rec.D > s.cfg.MaxD {
		s.countReject(&s.rej.Malformed)
		return admitWindow
	}
	if rec.T > 0 && rec.T+rec.D-1 < int(s.round.Load()) {
		s.countReject(&s.rej.Expired)
		return admitExpired
	}
	if s.sq.depth.Add(1) > int64(s.cfg.QueueCap) {
		s.sq.depth.Add(-1)
		s.countReject(&s.rej.QueueFull)
		return admitQueueFull
	}
	r := &core.Request{
		Arrive: rec.T, // provisional; the merge assigns the tick round and ID
		Alts:   append([]int(nil), rec.Alts...),
		D:      rec.D,
		W:      rec.W,
	}
	shard.mu.Lock()
	if shard.closed {
		shard.mu.Unlock()
		s.sq.depth.Add(-1)
		s.countReject(&s.rej.Draining)
		return admitDraining
	}
	shard.recs = append(shard.recs, r)
	shard.mu.Unlock()
	return admitOK
}

// countReject bumps one rejection counter under the engine mutex — the slow
// path; accepted records never take it.
func (s *Server) countReject(c *int) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// mergeStripesLocked drains every shard into the engine batch queue at the
// current round, assigning IDs in merge order (shard order, admission order
// within a shard) — the globally-increasing injection order the Stepper
// requires. final additionally closes the shards so admitters that passed the
// draining check before it was set cannot strand records in a drained shard.
func (s *Server) mergeStripesLocked(final bool) {
	t := s.st.Round()
	for i := range s.sq.shards {
		sh := &s.sq.shards[i]
		sh.mu.Lock()
		for _, r := range sh.recs {
			r.ID = s.nextID
			s.nextID++
			r.Arrive = t
			s.queue = append(s.queue, r)
		}
		s.sq.depth.Add(int64(-len(sh.recs)))
		sh.recs = sh.recs[:0]
		if final {
			sh.closed = true
		}
		sh.mu.Unlock()
	}
}
