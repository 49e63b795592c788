// Fixture for the lockorder analyzer, type-checked as
// repro/internal/stream (one of the three scoped packages).
package stream

import (
	"math/bits"
	"slices"
	"sync"
)

type Store struct {
	mu sync.Mutex
	n  int
}

// Health takes the store mutex — calling it while holding deadlocks.
func (s *Store) Health() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// reentry calls an acquirer with the mutex held.
func (s *Store) reentry() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.Health() // want lockorder "acquires that mutex"
}

// transitive re-entry is caught through the intra-package call graph.
func (s *Store) viaHelper() int { return s.Health() }

func (s *Store) reentryDeep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.viaHelper() // want lockorder "acquires that mutex"
}

// relock double-locks directly.
func (s *Store) relock() {
	s.mu.Lock()
	s.mu.Lock() // want lockorder "self-deadlock"
	s.mu.Unlock()
	s.mu.Unlock()
}

// unlockFirst releases before re-acquiring: a flushBatch-style helper
// that expects the caller to hold the mutex. Not an acquirer.
func (s *Store) unlockFirst() {
	s.mu.Unlock()
	s.n++
	s.mu.Lock()
}

// callsUnlockFirst is the legal pattern the first-action rule protects.
func (s *Store) callsUnlockFirst() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unlockFirst()
}

// earlyRelease drops the mutex before calling the acquirer: legal.
func (s *Store) earlyRelease() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	_ = s.Health()
}

type shard struct {
	mu sync.Mutex
	n  float64
}

// lockAllUnsorted acquires stripe locks in caller order: deadlock bait.
func lockAllUnsorted(shards []shard, keys []int) {
	for _, k := range keys {
		shards[k].mu.Lock() // want lockorder "without sorting"
	}
	for _, k := range keys {
		shards[k].mu.Unlock()
	}
}

// lockAllSorted is the ingestStaged idiom: sort, then acquire.
func lockAllSorted(shards []shard, keys []int) {
	slices.Sort(keys)
	for _, k := range keys {
		shards[k].mu.Lock()
	}
	for _, k := range keys {
		shards[k].mu.Unlock()
	}
}

// lockAllBitset walks a key bitset lowest bit first: ascending, no sort.
func lockAllBitset(shards []shard, keys uint64) {
	for m := keys; m != 0; m &= m - 1 {
		shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

// lockAllBitsetDown walks it highest bit first: descending, deadlock bait.
func lockAllBitsetDown(shards []shard, keys uint64) {
	for m := keys; m != 0; m &^= 1 << (63 - bits.LeadingZeros64(m)) {
		shards[63-bits.LeadingZeros64(m)].mu.Lock() // want lockorder "without sorting"
	}
}

// lockPerIteration holds one stripe at a time: no ordering needed.
func lockPerIteration(shards []shard, keys []int) float64 {
	var n float64
	for _, k := range keys {
		shards[k].mu.Lock()
		n += shards[k].n
		shards[k].mu.Unlock()
	}
	return n
}

// scrapeGauges is scrape-reachable and must not touch the store mutex.
//
//dapvet:scrape
func scrapeGauges(s *Store) {
	_ = s.Health() // want lockorder "scrape-reachable"
	scrapeHelper(s)
}

func scrapeHelper(s *Store) {
	_ = s.Health() // want lockorder "scrape-reachable"
}
