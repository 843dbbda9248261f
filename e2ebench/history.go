package main

// Versioned content for the cluster workload: each answer is checked
// against the content registered at the version the response names.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

type history struct {
	mu       sync.Mutex
	changed  *sync.Cond
	versions map[string]map[uint64]*otree
	// successorAnswers counts answers that matched the registration
	// after the named version rather than the named one; see check.
	successorAnswers atomic.Int64
}

func newHistory() *history {
	h := &history{versions: map[string]map[uint64]*otree{}}
	h.changed = sync.NewCond(&h.mu)
	return h
}

// record notes the content a registration stored at a version.
func (h *history) record(name string, ver uint64, t *otree) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.versions[name] == nil {
		h.versions[name] = map[uint64]*otree{}
	}
	h.versions[name][ver] = t
	h.changed.Broadcast()
}

// await returns the content of the first registration of name whose
// version satisfies ok, waiting up to wait for one: a read may see a
// new version before the writer's reply arrives.
func (h *history) await(name string, wait time.Duration, ok func(uint64) bool) (*otree, bool) {
	deadline := time.Now().Add(wait)
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		var best *otree
		var bestVer uint64
		for v, t := range h.versions[name] {
			if ok(v) && (best == nil || v < bestVer) {
				best, bestVer = t, v
			}
		}
		if best != nil {
			return best, true
		}
		if !time.Now().Before(deadline) {
			return nil, false
		}
		timer := time.AfterFunc(time.Until(deadline), func() {
			h.mu.Lock()
			h.changed.Broadcast()
			h.mu.Unlock()
		})
		h.changed.Wait()
		timer.Stop()
	}
}

// check compares an answer with the oracle's for the content the
// document held at the named version, waiting up to wait for that
// version's registration to be recorded.
//
// A server reads a document's version before its content, so a read
// racing a replacement may return the new content labeled with the old
// version (internal/serve documents this order as the safe one). An
// answer that matches the very next registration is therefore accepted
// and counted in successorAnswers. The reverse, old content under a
// newer version, is a stale answer and is rejected.
func (h *history) check(name string, ver uint64, q string, got *wireValue, wait time.Duration) error {
	t, ok := h.await(name, wait, func(v uint64) bool { return v == ver })
	if !ok {
		return fmt.Errorf("%s: no registration produced version %d", name, ver)
	}
	want, err := expect(t, q)
	if err != nil {
		return err
	}
	cerr := checkValue(want, got)
	if cerr == nil {
		return nil
	}
	if next, ok := h.await(name, wait, func(v uint64) bool { return v > ver }); ok {
		if want, err := expect(next, q); err == nil && checkValue(want, got) == nil {
			h.successorAnswers.Add(1)
			return nil
		}
	}
	return cerr
}
