// Package txlog models the paper's transaction-logging component: a
// circular in-memory log buffer that accumulates per-object log records and
// flushes to the log disk when full, plus per-transaction before-image
// accounting — the first update a transaction makes to a page forces one
// physical I/O to log the original page, and further updates to the same
// page within the transaction ride for free.
//
// That coalescing is why clustering reduces logging I/Os (Figure 5.5): when
// related objects share a page, a transaction's multiple updates tend to hit
// the same page.
package txlog

import (
	"fmt"

	"oodb/internal/storage"
)

// recordHeader is the fixed per-record overhead in bytes.
const recordHeader = 16

// Stats aggregates log activity.
type Stats struct {
	Records        int // log records appended
	BufferFlushes  int // physical I/Os from the circular buffer filling
	BeforeImageIOs int // physical I/Os logging a page's original image
	BytesLogged    int
	Aborts         int // transactions abandoned via Abort
}

// IOs returns the total physical logging I/Os.
func (s Stats) IOs() int { return s.BufferFlushes + s.BeforeImageIOs }

// Manager is the log manager. It is purely an accounting model: no bytes
// are materialized.
type Manager struct {
	bufSize int // circular buffer capacity in bytes
	used    int
	stats   Stats

	// touched tracks, per open transaction, the set of pages whose original
	// image has already been logged.
	touched map[int]map[storage.PageID]struct{}

	// dur, when set, receives every transaction boundary so commits and
	// aborts become durable write-ahead-log records. Nil (the default)
	// keeps the manager a pure accounting model.
	dur storage.TxnLog
}

// SetDurable forwards transaction boundaries to a durable log; nil
// disables forwarding.
func (m *Manager) SetDurable(d storage.TxnLog) { m.dur = d }

// NewManager creates a log manager with the given circular-buffer capacity
// in bytes.
func NewManager(bufSize int) *Manager {
	if bufSize <= 0 {
		panic("txlog: buffer size must be positive")
	}
	return &Manager{
		bufSize: bufSize,
		touched: make(map[int]map[storage.PageID]struct{}),
	}
}

// Begin opens transaction txn. Beginning an already-open transaction is an
// error (it would silently merge two transactions' coalescing sets).
func (m *Manager) Begin(txn int) error {
	if _, ok := m.touched[txn]; ok {
		return fmt.Errorf("txlog: transaction %d already open", txn)
	}
	m.touched[txn] = make(map[storage.PageID]struct{}, 4)
	if m.dur != nil {
		if err := m.dur.LogBegin(txn); err != nil {
			delete(m.touched, txn) // the transaction never opened
			return err
		}
	}
	return nil
}

// Append records that transaction txn created or modified an object of
// objSize bytes residing on page pg. It returns the number of physical log
// I/Os the append triggered (0, 1, or 2): one if this is the transaction's
// first update to pg (before-image), and one if the circular buffer
// overflowed and was flushed.
func (m *Manager) Append(txn int, objSize int, pg storage.PageID) (ios int, err error) {
	set, ok := m.touched[txn]
	if !ok {
		return 0, fmt.Errorf("txlog: transaction %d not open", txn)
	}
	// A repeat update to an already-imaged page rides for free — the
	// coalescing clustering is supposed to produce (Figure 5.5).
	if pg != storage.NilPage {
		if _, seen := set[pg]; !seen {
			set[pg] = struct{}{}
			m.stats.BeforeImageIOs++
			ios++
		}
	}
	rec := recordHeader + objSize
	m.stats.Records++
	m.stats.BytesLogged += rec
	if m.used+rec > m.bufSize {
		m.stats.BufferFlushes++
		ios++
		m.used = 0
	}
	m.used += rec
	return ios, nil
}

// End commits transaction txn, discarding its coalescing set. With a
// durable log installed, the commit record is appended before End returns;
// flushing it is the caller's storage.TxnLog.WaitDurable, made once the
// caller has released what serializes its writes.
func (m *Manager) End(txn int) error {
	if _, ok := m.touched[txn]; !ok {
		return fmt.Errorf("txlog: transaction %d not open", txn)
	}
	delete(m.touched, txn)
	if m.dur != nil {
		return m.dur.LogCommit(txn)
	}
	return nil
}

// Abort abandons transaction txn: its coalescing set is discarded and,
// with a durable log installed, an abort record is appended so recovery
// never replays its mutations.
func (m *Manager) Abort(txn int) error {
	if _, ok := m.touched[txn]; !ok {
		return fmt.Errorf("txlog: transaction %d not open", txn)
	}
	delete(m.touched, txn)
	m.stats.Aborts++
	if m.dur != nil {
		return m.dur.LogAbort(txn)
	}
	return nil
}

// Open returns the number of open transactions.
func (m *Manager) Open() int { return len(m.touched) }

// BufferUsed returns the bytes currently in the circular buffer.
func (m *Manager) BufferUsed() int { return m.used }

// Stats returns a copy of the statistics.
func (m *Manager) Stats() Stats { return m.stats }

// ResetStats zeroes the statistics.
func (m *Manager) ResetStats() { m.stats = Stats{} }
