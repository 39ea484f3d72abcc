package runtime

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// fakeExecutor dials the master over tr and sends first (nothing when it
// is nil). id yields the id its setup assigns it, or -1 once the master
// closes it instead; an admitted one then reads on until the master
// hangs up, answering each message with the replies answer makes of it
// (when answer is set). done closes once its end of the connection is
// closed.
type fakeExecutor struct {
	id   chan int
	done chan struct{}
}

func dialFake(tr Transport, addr string, first *Msg, answer func(*Msg) []*Msg) fakeExecutor {
	f := fakeExecutor{id: make(chan int, 1), done: make(chan struct{})}
	conn, err := tr.Dial(addr)
	if err != nil {
		f.id <- -1
		close(f.done)
		return f
	}
	c := newCodec(conn)
	go func() {
		defer close(f.done)
		defer c.close()
		if first != nil && c.send(first) != nil {
			f.id <- -1
			return
		}
		setup, err := c.recv()
		if err != nil || setup.Kind != MsgSetup {
			f.id <- -1
			return
		}
		f.id <- setup.ExecutorID
		for {
			msg, err := c.recv()
			if err != nil {
				return
			}
			if answer != nil {
				for _, reply := range answer(msg) {
					c.send(reply)
				}
			}
		}
	}()
	return f
}

// fate waits for what became of f: its id, or -1 once it was closed.
func (f fakeExecutor) fate(t *testing.T) int {
	t.Helper()
	select {
	case id := <-f.id:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("a dialer was neither admitted nor closed")
		return 0
	}
}

func hello(id int) *Msg { return &Msg{Kind: MsgHello, ExecutorID: id} }

// TestChaosAdmission drives fleet admission with fake executors: each
// dialer gets the slot it asks for, or the first free one when it asks
// for none; a dialer that asks for a taken or out-of-range slot, opens
// with anything but a hello, or never says anything is closed while the
// others form the fleet; one that dials after the fleet is full is never
// admitted; and a fleet short of want at the deadline is not formed: the
// minimum is want.
func TestChaosAdmission(t *testing.T) {
	for _, tc := range []struct {
		name string
		// want and wait admit the fleet: WaitForExecutors when wait is
		// zero, Reform otherwise.
		want     int
		wait     time.Duration
		dialers  []*Msg // in dial order; nil says nothing
		late     *Msg   // dials once the fleet is formed
		ids      []int  // each dialer's id, -1 when closed
		anyOrder bool   // ids is a multiset: which dialer wins a race is not fixed
		n        int    // the fleet formed, 0 when admission fails
	}{
		{name: "requested slot", want: 2,
			dialers: []*Msg{hello(1), hello(0)}, ids: []int{1, 0}, n: 2},
		{name: "-1 takes the first free slot", want: 2,
			dialers: []*Msg{hello(1), hello(-1)}, ids: []int{1, 0}, n: 2},
		{name: "duplicate id", want: 2,
			dialers: []*Msg{hello(0), hello(0), hello(1)}, ids: []int{-1, 0, 1}, anyOrder: true, n: 2},
		{name: "out-of-range id", want: 2,
			dialers: []*Msg{hello(5), hello(0), hello(1)}, ids: []int{-1, 0, 1}, n: 2},
		{name: "first message not a hello", want: 2,
			dialers: []*Msg{{Kind: MsgPing}, hello(0), hello(1)}, ids: []int{-1, 0, 1}, n: 2},
		{name: "silent dialer", want: 2,
			dialers: []*Msg{nil, hello(0), hello(1)}, ids: []int{-1, 0, 1}, n: 2},
		{name: "latecomer after the fleet is full", want: 2,
			dialers: []*Msg{hello(0), hello(1)}, late: hello(-1), ids: []int{0, 1, -1}, n: 2},
		{name: "below min at the deadline", want: 3, wait: 100 * time.Millisecond,
			dialers: []*Msg{hello(0), hello(2)}, ids: []int{-1, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewInProc()
			m, err := Listen(tr, "admit-master", tc.want)
			if err != nil {
				t.Fatal(err)
			}
			var fakes []fakeExecutor
			for i, first := range tc.dialers {
				if first != nil {
					first.PeerAddr = fmt.Sprintf("dialer-%d", i)
				}
				fakes = append(fakes, dialFake(tr, m.Addr(), first, nil))
			}
			formed := make(chan int, 1)
			go func() {
				var err error
				if tc.wait == 0 {
					err = m.WaitForExecutors()
				} else {
					err = m.Reform(tc.want, tc.wait)
				}
				if (err == nil) != (tc.n > 0) {
					t.Errorf("admission: %v", err)
				}
				if err != nil {
					formed <- 0
					return
				}
				formed <- m.n
			}()
			select {
			case n := <-formed:
				if n != tc.n {
					t.Errorf("formed a fleet of %d, want %d", n, tc.n)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("admission hung")
			}
			if tc.late != nil {
				fakes = append(fakes, dialFake(tr, m.Addr(), tc.late, nil))
			}
			// Every dialer the fleet formed without already knows; the
			// latecomer learns at shutdown.
			ids := make([]int, len(fakes))
			for i, f := range fakes[:len(tc.dialers)] {
				ids[i] = f.fate(t)
			}
			peers := m.PeerAddrs()
			m.Shutdown()
			for i, f := range fakes {
				if i >= len(tc.dialers) {
					ids[i] = f.fate(t)
				}
				<-f.done
			}
			want := tc.ids
			if tc.anyOrder {
				want = slices.Clone(want)
				slices.Sort(ids)
				slices.Sort(want)
			}
			if !slices.Equal(ids, want) {
				t.Errorf("dialers got ids %v, want %v", ids, want)
			}
			for i, id := range ids {
				if id >= 0 && i < len(tc.dialers) && !tc.anyOrder && peers[id] != tc.dialers[i].PeerAddr {
					t.Errorf("slot %d holds peer %q, want %q", id, peers[id], tc.dialers[i].PeerAddr)
				}
			}
			if open := tr.OpenConns(); open != 0 {
				t.Errorf("%d connection ends left open", open)
			}
		})
	}
}
