package lock

import "oodb/internal/model"

// AcquireWait requests mode on obj for txn and blocks the calling goroutine
// until the lock is granted. It is the goroutine counterpart of Acquire's
// callback protocol: where the simulator resumes a suspended transaction
// from the releasing transaction's completion event, a goroutine parks on a
// channel and the releaser's Release wakes it. FIFO grant order is the
// manager's, unchanged; only the wait mechanism differs, and the channel is
// made only when the request queues. No engine driver calls it (the
// concurrent engine takes no object locks); bench/'s lock probe does.
//
// Deadlock freedom remains the caller's obligation: acquire every
// transaction's lock set in one global order (sorted by object ID) so no
// wait cycle can form.
func (m *Manager) AcquireWait(txn int, obj model.ObjectID, mode Mode) error {
	_, wake, err := m.acquire(txn, obj, mode, nil, true)
	if wake != nil {
		<-wake
	}
	return err
}
