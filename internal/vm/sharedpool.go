package vm

import (
	"sync"
	"sync/atomic"

	"nimble/internal/ir"
)

// SharedStoragePool is a cross-VM free list of storages: many VMs — across
// sessions, pools, and entirely different programs — donate buffers they
// cannot park locally and draw from the common stock before allocating. A
// multi-model server attaches one shared pool to every session of every
// deployed program, so resident buffer memory scales with the concurrent
// working set (how much is actually being computed at once) rather than
// with #models × #sessions: an idle model's buffers circulate into
// whichever model is hot instead of sitting in per-VM free lists.
//
// The shared pool is the slow tier of a two-level design. Each VM keeps its
// unsynchronized per-session storagePool exactly as before (O(1) LIFO, no
// locking on the hot path); the shared pool is consulted only on a local
// miss (acquire) or local overflow (release), so the mutex here is taken a
// small fraction of the time and never on the steady-state path of a
// cache-warm session. All methods are safe for concurrent use.
type SharedStoragePool struct {
	mu      sync.Mutex
	classes map[poolKey][]*Storage
	// perClass bounds each {device, size-class} bin; donations beyond it
	// are dropped for the GC, which bounds resident memory even when many
	// programs drain at once.
	perClass int

	resident atomic.Int64 // bytes parked in the pool right now
	hits     atomic.Int64 // acquires served from the pool
	misses   atomic.Int64 // acquires that fell through to allocation
	donated  atomic.Int64 // storages accepted from VMs
	dropped  atomic.Int64 // donations refused because the class was full
}

// sharedPerClassDefault bounds each shared {device, class} bin. 256 entries
// of the largest common classes is comfortably above any single model's
// per-session working set while keeping worst-case parked memory bounded.
const sharedPerClassDefault = 256

// NewSharedStoragePool builds an empty shared pool.
func NewSharedStoragePool() *SharedStoragePool {
	return &SharedStoragePool{
		classes:  map[poolKey][]*Storage{},
		perClass: sharedPerClassDefault,
	}
}

// acquire hands out a parked storage of the request's size class, or
// (nil, false) when the class is empty. LIFO for the same cache-residency
// reason as the per-VM pool.
func (sp *SharedStoragePool) acquire(size int, dev ir.Device) (*Storage, bool) {
	key := poolKey{dev: dev, cls: sizeClass(size)}
	sp.mu.Lock()
	list := sp.classes[key]
	if n := len(list); n > 0 {
		st := list[n-1]
		list[n-1] = nil
		sp.classes[key] = list[:n-1]
		sp.mu.Unlock()
		sp.resident.Add(-int64(st.SizeBytes))
		sp.hits.Add(1)
		return st, true
	}
	sp.mu.Unlock()
	sp.misses.Add(1)
	return nil, false
}

// donate parks a storage a VM could not keep locally. Returns false (and
// leaves the storage to the GC) when the class is at its bound.
func (sp *SharedStoragePool) donate(st *Storage) bool {
	key := poolKey{dev: st.Device, cls: sizeClass(st.SizeBytes)}
	sp.mu.Lock()
	if len(sp.classes[key]) >= sp.perClass {
		sp.mu.Unlock()
		sp.dropped.Add(1)
		return false
	}
	sp.classes[key] = append(sp.classes[key], st)
	sp.mu.Unlock()
	sp.resident.Add(int64(st.SizeBytes))
	sp.donated.Add(1)
	return true
}

// SharedPoolStats snapshots the shared pool's counters.
type SharedPoolStats struct {
	// ResidentBytes is how much buffer memory is parked (idle) in the pool.
	ResidentBytes int64 `json:"resident_bytes"`
	// Hits counts acquires served from the pool; Misses counts acquires
	// that had to allocate. Hits rising across a model swap is the pool
	// doing its job: the new version is reusing the old one's buffers.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Donated/Dropped count storages VMs offered; Dropped ones exceeded the
	// per-class bound and went to the GC instead.
	Donated int64 `json:"donated"`
	Dropped int64 `json:"dropped"`
}

// Stats snapshots the counters.
func (sp *SharedStoragePool) Stats() SharedPoolStats {
	return SharedPoolStats{
		ResidentBytes: sp.resident.Load(),
		Hits:          sp.hits.Load(),
		Misses:        sp.misses.Load(),
		Donated:       sp.donated.Load(),
		Dropped:       sp.dropped.Load(),
	}
}

// AttachSharedPool connects this VM's storage pool to a shared cross-VM
// tier: local misses draw from it, local overflow donates to it. Like
// SetProfiler it is a configuration mutator and must be called before the
// VM becomes a serving session; a VM running with storage reuse
// disabled (DisablePool) ignores the attachment
// (vet:panic-ok — construction-phase misuse guard, never on a request path).
func (vm *VM) AttachSharedPool(sp *SharedStoragePool) {
	if vm.pooled {
		panic("vm: AttachSharedPool on a pooled VM; attach before the serving scheduler adopts the session")
	}
	if vm.pool != nil {
		vm.pool.shared = sp
	}
}
