package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

func replSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("repl")
	if err := s.AddRelation(&catalog.Relation{
		Name: "DIRECTOR",
		Attributes: []*catalog.Attribute{
			{Name: "id", Type: catalog.Int, NotNull: true},
			{Name: "name", Type: catalog.Text, NotNull: true},
			{Name: "bdate", Type: catalog.Date},
		},
		PrimaryKey:  []string{"id"},
		HeadingAttr: "name",
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func newReplDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.NewDatabase(replSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newPrimaryDB returns a durable database over a MemFS.
func newPrimaryDB(t *testing.T) *storage.Database {
	t.Helper()
	db := newReplDB(t)
	if _, err := db.EnableDurability(wal.NewMemFS(), storage.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	return db
}

func insRow(t *testing.T, db *storage.Database, id int) {
	t.Helper()
	insRowText(t, db, id, fmt.Sprintf("d-%d", id))
}

func insRowText(t *testing.T, db *storage.Database, id int, name string) {
	t.Helper()
	err := db.Insert("DIRECTOR", storage.Tuple{
		value.NewInt(int64(id)), value.NewText(name), value.NewNull(),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// dump fingerprints a database's snapshot contents for convergence checks.
func dump(db *storage.Database) string {
	s := db.Snapshot()
	var sb strings.Builder
	for _, name := range s.TableNames() {
		sb.WriteString("== " + name + "\n")
		for _, tup := range s.Table(name).Tuples() {
			for i, v := range tup {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(v.Key())
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startPrimary builds a serving primary on a loopback listener.
func startPrimary(t *testing.T, db *storage.Database, opts PrimaryOptions) (*Primary, string) {
	t.Helper()
	p, err := NewPrimary(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.Start(ln)
	return p, ln.Addr().String()
}

func fastFollowerOpts(addr string) FollowerOptions {
	return FollowerOptions{
		Addr:         addr,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
		ReadTimeout:  2 * time.Second,
		SendTimeout:  time.Second,
	}
}

// ---------------------------------------------------------------------------
// End-to-end streaming
// ---------------------------------------------------------------------------

// TestReplicationEndToEnd pins the happy path over a real TCP link: a
// follower converges to the primary's contents byte-for-byte, live commits
// keep flowing, and the primary tracks the follower's acknowledged sequence.
func TestReplicationEndToEnd(t *testing.T) {
	defer leakcheck.Check(t)()
	pdb := newPrimaryDB(t)
	for i := 1; i <= 3; i++ {
		insRow(t, pdb, i)
	}
	p, addr := startPrimary(t, pdb, PrimaryOptions{Heartbeat: 50 * time.Millisecond})
	defer p.Close()

	fdb := newReplDB(t)
	f, err := StartFollower(fdb, fastFollowerOpts(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFor(t, 5*time.Second, "backlog convergence", func() bool {
		return f.Status().AppliedSeq == 3
	})
	if got, want := dump(fdb), dump(pdb); got != want {
		t.Fatalf("follower diverged after backlog:\n%s\n----\n%s", got, want)
	}

	// Live tail: commits made while the follower is attached.
	for i := 4; i <= 10; i++ {
		insRow(t, pdb, i)
	}
	waitFor(t, 5*time.Second, "live-tail convergence", func() bool {
		return f.Status().AppliedSeq == 10
	})
	if got, want := dump(fdb), dump(pdb); got != want {
		t.Fatalf("follower diverged on the live tail:\n%s\n----\n%s", got, want)
	}

	// The ack stream feeds the primary's lag accounting.
	waitFor(t, 5*time.Second, "primary ack tracking", func() bool {
		st := p.Stats()
		return len(st.Followers) == 1 && st.Followers[0].AckSeq == 10 && st.Followers[0].Lag == 0
	})
	st := f.Status()
	if st.Quarantined || st.Lag != 0 || !st.Connected {
		t.Fatalf("follower status after convergence: %+v", st)
	}
	if st.Catchup.LastSeq != 10 {
		t.Fatalf("catch-up report ends at %d, want 10", st.Catchup.LastSeq)
	}
}

// TestFollowerRejectsLocalWrites pins the read-only guard end to end.
func TestFollowerRejectsLocalWrites(t *testing.T) {
	defer leakcheck.Check(t)()
	pdb := newPrimaryDB(t)
	insRow(t, pdb, 1)
	p, addr := startPrimary(t, pdb, PrimaryOptions{Heartbeat: 50 * time.Millisecond})
	defer p.Close()
	fdb := newReplDB(t)
	f, err := StartFollower(fdb, fastFollowerOpts(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, 5*time.Second, "convergence", func() bool { return f.Status().AppliedSeq == 1 })
	err = fdb.Insert("DIRECTOR", storage.Tuple{value.NewInt(99), value.NewText("local"), value.NewNull()})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("local write on follower: %v, want read-only refusal", err)
	}
}

// TestFollowerReconnectsAndResumes severs a live link from the outside and
// checks the follower dials back, resumes from its applied sequence, and
// converges on commits made during the outage.
func TestFollowerReconnectsAndResumes(t *testing.T) {
	defer leakcheck.Check(t)()
	pdb := newPrimaryDB(t)
	for i := 1; i <= 3; i++ {
		insRow(t, pdb, i)
	}
	p, addr := startPrimary(t, pdb, PrimaryOptions{Heartbeat: 50 * time.Millisecond})
	defer p.Close()

	var mu sync.Mutex
	var conns []net.Conn
	opts := fastFollowerOpts(addr)
	opts.Dial = func(a string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, time.Second)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	fdb := newReplDB(t)
	f, err := StartFollower(fdb, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return f.Status().AppliedSeq == 3 })

	// Sever the link out from under the follower, then commit more.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	for i := 4; i <= 6; i++ {
		insRow(t, pdb, i)
	}
	waitFor(t, 5*time.Second, "post-reconnect convergence", func() bool { return f.Status().AppliedSeq == 6 })
	if got, want := dump(fdb), dump(pdb); got != want {
		t.Fatalf("diverged after reconnect:\n%s\n----\n%s", got, want)
	}
	if st := f.Status(); st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", st.Reconnects)
	}
}

// TestWedgedFollowerNeverBlocksCommits is the stall-injection acceptance
// test: a follower that handshakes and then never reads again must not slow
// the primary's commit path — the bounded outbox absorbs what fits, the send
// deadline severs the link, and commits proceed at local speed throughout.
func TestWedgedFollowerNeverBlocksCommits(t *testing.T) {
	defer leakcheck.Check(t)()
	pdb := newPrimaryDB(t)
	p, addr := startPrimary(t, pdb, PrimaryOptions{
		Heartbeat:   50 * time.Millisecond,
		SendTimeout: 200 * time.Millisecond,
		OutboxBytes: 64 << 10,
	})
	defer p.Close()

	// A wedge: handshake like a follower at seq 0, then never read a byte.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := appendMessage(nil, msgHandshake, nil, protoVersion, storage.SchemaFingerprint(pdb), 0)
	if _, err := conn.Write(wal.AppendRecord(nil, payload)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "wedged follower registration", func() bool {
		return len(p.Stats().Followers) == 1
	})

	// Commit enough bytes to overwhelm any socket buffer many times over.
	big := strings.Repeat("x", 32<<10)
	start := time.Now()
	for i := 1; i <= 100; i++ {
		insRowText(t, pdb, i, big)
	}
	elapsed := time.Since(start)
	// 100 commits to an in-memory FS take microseconds each; even a single
	// send-deadline stall (200ms) leaking into the commit path would blow
	// this bound tenfold.
	if elapsed > 2*time.Second {
		t.Fatalf("100 commits took %v with a wedged follower attached", elapsed)
	}
	waitFor(t, 5*time.Second, "wedged follower dropped", func() bool {
		st := p.Stats()
		return st.Dropped >= 1 && len(st.Followers) == 0
	})
	if st := p.Stats(); st.OutboxBytes > 64<<10+33<<10 {
		t.Fatalf("outbox grew past its bound: %d bytes", st.OutboxBytes)
	}
}

// ---------------------------------------------------------------------------
// Divergence latching against a scripted primary
// ---------------------------------------------------------------------------

// fakePrimary accepts one follower connection and hands it to a script.
type fakePrimary struct {
	ln   net.Listener
	stop chan struct{}
	done chan struct{}
}

func startFakePrimary(t *testing.T, script func(send func(kind byte, body []byte, fields ...uint64))) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePrimary{ln: ln, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(fp.done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := wal.NewFrameScanner(conn)
		if !sc.Scan() {
			return
		}
		var scratch []byte
		script(func(kind byte, body []byte, fields ...uint64) {
			payload := appendMessage(nil, kind, body, fields...)
			_ = sendMessage(conn, time.Second, &scratch, payload)
		})
		<-fp.stop // hold the link open until the test is done asserting
	}()
	return fp
}

func (fp *fakePrimary) close() {
	close(fp.stop)
	fp.ln.Close()
	<-fp.done
}

// emptyRecord encodes a WAL record with the given sequence and zero ops —
// enough to move a follower's applied sequence without touching tables.
func emptyRecord(seq uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, seq), 0)
}

func waitQuarantine(t *testing.T, f *Follower, wantSubstr string) {
	t.Helper()
	waitFor(t, 5*time.Second, "quarantine latch", func() bool { return f.Quarantined() != nil })
	q := f.Quarantined()
	if !strings.Contains(q.Reason, wantSubstr) {
		t.Fatalf("quarantine reason %q does not mention %q", q.Reason, wantSubstr)
	}
	st := f.Status()
	if !st.Quarantined || st.QuarantineReason != q.Reason {
		t.Fatalf("status does not reflect quarantine: %+v", st)
	}
}

// TestQuarantineOnSequenceGap: a record skipping ahead latches divergence.
func TestQuarantineOnSequenceGap(t *testing.T) {
	defer leakcheck.Check(t)()
	fdb := newReplDB(t)
	fp := startFakePrimary(t, func(send func(byte, []byte, ...uint64)) {
		send(msgWelcome, nil, protoVersion, storage.SchemaFingerprint(fdb), 5)
		send(msgRecord, emptyRecord(2)) // follower at 0 expects 1
	})
	defer fp.close()
	f, err := StartFollower(fdb, fastFollowerOpts(fp.ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitQuarantine(t, f, "sequence gap: record 2 arrived while I stood at 0")
	if f.Quarantined().Seq != 0 {
		t.Fatalf("quarantine seq %d, want 0", f.Quarantined().Seq)
	}
}

// TestQuarantineOnStaleCheckpoint: a checkpoint whose floor is behind the
// follower's applied state means the histories diverged; the follower must
// refuse it before wiping anything.
func TestQuarantineOnStaleCheckpoint(t *testing.T) {
	defer leakcheck.Check(t)()
	// Build, on a scratch primary: two real committed records (captured via
	// the commit sink) and a checkpoint segment whose floor is 1.
	fs := wal.NewMemFS()
	cdb := newReplDB(t)
	if _, err := cdb.EnableDurability(fs, storage.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	if err := cdb.SetCommitSink(func(seq uint64, record []byte) {
		records = append(records, append([]byte(nil), record...))
	}); err != nil {
		t.Fatal(err)
	}
	insRow(t, cdb, 1)
	if err := cdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err := wal.ReadAll(fs, storage.CheckpointFileName)
	if err != nil {
		t.Fatal(err)
	}
	insRow(t, cdb, 2)

	fdb := newReplDB(t)
	fp := startFakePrimary(t, func(send func(byte, []byte, ...uint64)) {
		send(msgWelcome, nil, protoVersion, storage.SchemaFingerprint(fdb), 2)
		send(msgRecord, records[0])
		send(msgRecord, records[1]) // follower now stands at 2
		send(msgCheckpoint, ck)     // floor 1 < 2: divergence
	})
	defer fp.close()
	f, err := StartFollower(fdb, fastFollowerOpts(fp.ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitQuarantine(t, f, "checkpoint at sequence 1 while I stand at 2")
	if got := fdb.Snapshot().Seq(); got != 2 {
		t.Fatalf("follower wiped state before refusing: snapshot at %d, want 2", got)
	}
}

// TestQuarantineOnVersionMismatch: a primary speaking another protocol
// version is divergence, not a retry.
func TestQuarantineOnVersionMismatch(t *testing.T) {
	defer leakcheck.Check(t)()
	fdb := newReplDB(t)
	fp := startFakePrimary(t, func(send func(byte, []byte, ...uint64)) {
		send(msgWelcome, nil, 99, storage.SchemaFingerprint(fdb), 0)
	})
	defer fp.close()
	f, err := StartFollower(fdb, fastFollowerOpts(fp.ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitQuarantine(t, f, "replication protocol version 99")
}

// TestPrimaryRejectsSchemaMismatch: a real primary refuses a follower built
// from a different schema, and the follower latches the narrated refusal.
func TestPrimaryRejectsSchemaMismatch(t *testing.T) {
	defer leakcheck.Check(t)()
	pdb := newPrimaryDB(t)
	p, addr := startPrimary(t, pdb, PrimaryOptions{Heartbeat: 50 * time.Millisecond})
	defer p.Close()

	other := catalog.NewSchema("other")
	if err := other.AddRelation(&catalog.Relation{
		Name:       "SOMETHING_ELSE",
		Attributes: []*catalog.Attribute{{Name: "id", Type: catalog.Int, NotNull: true}},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	fdb, err := storage.NewDatabase(other)
	if err != nil {
		t.Fatal(err)
	}
	f, err := StartFollower(fdb, fastFollowerOpts(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitQuarantine(t, f, "the primary refused me: our schemas differ")
}

// TestFollowerRequiresInMemoryDB and TestPrimaryRequiresDurableDB pin the
// construction guards.
func TestConstructionGuards(t *testing.T) {
	defer leakcheck.Check(t)()
	if _, err := NewPrimary(newReplDB(t), PrimaryOptions{}); err == nil {
		t.Fatal("NewPrimary accepted a non-durable database")
	}
	if _, err := StartFollower(newPrimaryDB(t), FollowerOptions{Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("StartFollower accepted a durable database")
	}
}

// TestProtoRoundTrip pins the wire encoding of every message kind.
func TestProtoRoundTrip(t *testing.T) {
	for _, want := range protoCases() {
		got, err := parseMessage(appendMessage(nil, want.kind, want.body, fields(want)...))
		if err != nil {
			t.Fatalf("%q: %v", want.kind, err)
		}
		if !sameMessage(got, want) {
			t.Fatalf("%q round trip: got %+v want %+v", want.kind, got, want)
		}
	}
	if _, err := parseMessage(nil); err == nil {
		t.Fatal("empty payload parsed")
	}
	if _, err := parseMessage([]byte{'Z'}); err == nil {
		t.Fatal("unknown kind parsed")
	}
	if _, err := parseMessage([]byte{msgAck}); err == nil {
		t.Fatal("short ack parsed")
	}
}

// protoCases holds one message of every kind.
func protoCases() []message {
	return []message{
		{kind: msgHandshake, a: protoVersion, b: 0xDEADBEEF, c: 42},
		{kind: msgWelcome, a: protoVersion, b: 7, c: 9},
		{kind: msgCheckpoint, body: []byte("segment bytes")},
		{kind: msgRecord, body: emptyRecord(3)},
		{kind: msgHeartbeat, a: 17},
		{kind: msgAck, a: 16},
		{kind: msgReject, body: []byte("go away")},
	}
}

// fields returns m's uvarint fields in wire order.
func fields(m message) []uint64 {
	return []uint64{m.a, m.b, m.c}[:uvarintCount(m.kind)]
}

func sameMessage(a, b message) bool {
	return a.kind == b.kind && a.a == b.a && a.b == b.b && a.c == b.c && bytes.Equal(a.body, b.body)
}

// FuzzParseMessage feeds arbitrary frame payloads to the message decoder.
// Whatever the bytes, parsing never panics, and a payload it accepts
// re-encodes into one that parses to the same message (a non-canonical
// uvarint may change the bytes, never the message).
func FuzzParseMessage(f *testing.F) {
	for _, m := range protoCases() {
		f.Add(appendMessage(nil, m.kind, m.body, fields(m)...))
	}
	f.Add([]byte{msgAck})
	f.Add([]byte{msgHandshake, 0x81, 0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := parseMessage(payload)
		if err != nil {
			return
		}
		again, err := parseMessage(appendMessage(nil, m.kind, m.body, fields(m)...))
		if err != nil {
			t.Fatalf("re-encoded %+v does not parse: %v", m, err)
		}
		if !sameMessage(again, m) {
			t.Fatalf("round trip changed the message: %+v, then %+v", m, again)
		}
	})
}

var _ io.Reader = deadlineReader{} // the scanner consumes links through this
