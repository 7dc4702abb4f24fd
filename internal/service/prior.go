package service

import (
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/prior"
)

// priorSampleOf is a profile's contribution to the population prior. Store
// takes it on every Put and keeps it in the record's summary.
func priorSampleOf(p *StoredProfile) prior.Sample {
	return prior.Sample{Params: p.HeadParams, ResidualDeg: p.MeanResidualDeg}
}

// priorManager owns the service's population prior: one model fitted at
// startup from the samples the stored records carry, then swapped
// atomically on every background refit. Nothing is written to disk: the
// store's index is the only copy of the inputs, so every start refits over
// every stored profile. The model itself is immutable once published;
// solvers read whatever version is current when their job starts.
type priorManager struct {
	store *Store
	min   int // fewest profiles worth fitting over
	every int // refit after this many newly stored profiles
	log   *slog.Logger

	model atomic.Pointer[prior.Model]

	stored atomic.Int64 // profiles stored since the last refit

	// Refit coalescing: at most one refit runs, and requests made while
	// it runs collapse into one more run after it.
	mu      sync.Mutex
	running bool
	pending bool

	refitHook func() // test seam: runs at the start of each background refit
}

func newPriorManager(store *Store, refreshEvery, minProfiles int, log *slog.Logger) *priorManager {
	if refreshEvery <= 0 {
		refreshEvery = 16
	}
	if minProfiles <= 0 {
		minProfiles = 3
	}
	m := &priorManager{
		store: store,
		min:   minProfiles,
		every: refreshEvery,
		log:   log,
	}
	m.refit()
	return m
}

// current returns the latest published model (nil before the store has
// enough profiles). The returned model is immutable.
func (m *priorManager) current() *prior.Model {
	return m.model.Load()
}

// onStored counts a newly persisted profile and requests an asynchronous
// refit once enough have accumulated. Safe from any worker goroutine.
func (m *priorManager) onStored() {
	if m.stored.Add(1) < int64(m.every) {
		return
	}
	m.stored.Store(0)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		m.pending = true
		return
	}
	m.running = true
	go m.refitLoop()
}

// refitLoop refits until no request arrived during the last run. A run
// lists the store when it starts, so the last one covers every profile
// stored before it.
func (m *priorManager) refitLoop() {
	for {
		if m.refitHook != nil {
			m.refitHook()
		}
		m.refit()
		m.mu.Lock()
		if !m.pending {
			m.running = false
			m.mu.Unlock()
			return
		}
		m.pending = false
		m.mu.Unlock()
	}
}

// refit fits a fresh model over every stored profile's sample (see
// Store.PriorSamples) and publishes it. A failure leaves the previous
// model in place. Callers guarantee that refits never overlap.
func (m *priorManager) refit() {
	samples := m.store.PriorSamples()
	if len(samples) < m.min {
		return
	}
	model, err := prior.Fit(samples)
	if err != nil {
		m.log.Warn("prior refit failed", "profiles", len(samples), "err", err)
		return
	}
	m.model.Store(model)
	m.log.Info("population prior refitted", "profiles", model.Count,
		"meanA", model.Mean[0], "meanB", model.Mean[1], "meanC", model.Mean[2])
}
