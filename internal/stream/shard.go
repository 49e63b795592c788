package stream

import "sync"

// shard is one lock stripe of a group's live histogram: bucket counts over
// the discretized output domain plus the exact running report sum (the
// sufficient statistic the estimator needs). The struct is padded so
// adjacent stripes do not share a cache line under write contention.
type shard struct {
	mu     sync.Mutex
	counts []float64
	sum    float64
	n      float64
	_      [64]byte
}

// shardSet is the live histogram of one (tenant, group): Shards stripes
// written concurrently by ingesters. A report increments one bucket of one
// stripe under that stripe's lock; readers merge all stripes.
type shardSet struct {
	shards []shard
}

func newShardSet(stripes, buckets int) *shardSet {
	s := &shardSet{shards: make([]shard, stripes)}
	for i := range s.shards {
		s.shards[i].counts = make([]float64, buckets)
	}
	return s
}

// stripe returns the shard a stripe hash maps to.
func (s *shardSet) stripe(hash uint64) *shard {
	return &s.shards[hash%uint64(len(s.shards))]
}

// addLocked records a batch of reports with the shard lock held — the
// ingest path holds it across charge, WAL append and apply so same-stripe
// applies happen in LSN order (see Tenant.ingestStaged). idx and vals are
// parallel: idx[j] is the precomputed bucket of value vals[j]. Validation
// happened before the lock — nothing here can fail, so the critical
// section is a handful of adds.
func (sh *shard) addLocked(idx []int, vals []float64) {
	for j, i := range idx {
		sh.counts[i]++
		sh.sum += vals[j]
	}
	sh.n += float64(len(idx))
}

// mergeLocked folds every stripe into counts (which must be zeroed,
// len = buckets) and returns the total sum and report count. The caller
// must hold the tenant's write lock (rotation) — ingesters are excluded,
// so stripes are quiescent and no stripe locks are needed.
func (s *shardSet) mergeLocked(counts []float64) (sum, n float64) {
	for i := range s.shards {
		sh := &s.shards[i]
		for b, c := range sh.counts {
			counts[b] += c
		}
		sum += sh.sum
		n += sh.n
	}
	return sum, n
}

// count returns the live report count across stripes, each read under its
// own lock (safe while ingesters are active; the caller must hold the
// tenant's read lock so rotation cannot swap the set mid-sum).
func (s *shardSet) count() float64 {
	var n float64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// mergeLive folds every stripe into counts while ingesters may be active:
// each stripe is copied under its own lock. The caller must hold the
// tenant's read lock so rotation cannot swap the set mid-merge.
func (s *shardSet) mergeLive(counts []float64) (sum, n float64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for b, c := range sh.counts {
			counts[b] += c
		}
		sum += sh.sum
		n += sh.n
		sh.mu.Unlock()
	}
	return sum, n
}
