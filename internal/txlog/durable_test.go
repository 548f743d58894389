package txlog

import (
	"errors"
	"testing"
)

// fakeTxnLog records forwarded transaction boundaries, with optional
// injected failures.
type fakeTxnLog struct {
	begins, commits, aborts []int
	failBegin               error
}

func (f *fakeTxnLog) LogBegin(txn int) error {
	if f.failBegin != nil {
		return f.failBegin
	}
	f.begins = append(f.begins, txn)
	return nil
}
func (f *fakeTxnLog) LogCommit(txn int) error { f.commits = append(f.commits, txn); return nil }
func (f *fakeTxnLog) LogAbort(txn int) error  { f.aborts = append(f.aborts, txn); return nil }
func (f *fakeTxnLog) WaitDurable() error      { return nil }

func TestDurableForwarding(t *testing.T) {
	m := NewManager(1024)
	d := &fakeTxnLog{}
	m.SetDurable(d)

	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(1, 32, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.End(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(2); err != nil {
		t.Fatal(err)
	}
	if len(d.begins) != 2 || len(d.commits) != 1 || len(d.aborts) != 1 {
		t.Fatalf("forwarded %v/%v/%v, want 2 begins, 1 commit, 1 abort", d.begins, d.commits, d.aborts)
	}
	if m.Stats().Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", m.Stats().Aborts)
	}
	if m.Open() != 0 {
		t.Fatalf("open = %d, want 0", m.Open())
	}
}

// A durable-begin failure rolls the open transaction back: the manager must
// not consider it open after Begin errored.
func TestDurableBeginFailureRollsBack(t *testing.T) {
	m := NewManager(1024)
	bang := errors.New("log disk gone")
	m.SetDurable(&fakeTxnLog{failBegin: bang})
	if err := m.Begin(1); !errors.Is(err, bang) {
		t.Fatalf("Begin error = %v, want %v", err, bang)
	}
	if m.Open() != 0 {
		t.Fatal("failed Begin left the transaction open")
	}
	// The same transaction ID can be begun again once the log recovers.
	m.SetDurable(&fakeTxnLog{})
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
}

func TestAbortErrors(t *testing.T) {
	m := NewManager(1024)
	if err := m.Abort(9); err == nil {
		t.Fatal("abort of an unopened transaction must fail")
	}
	if err := m.Begin(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(3); err == nil {
		t.Fatal("double abort must fail")
	}
	if _, err := m.Append(3, 10, 1); err == nil {
		t.Fatal("append to an aborted transaction must fail")
	}
}
