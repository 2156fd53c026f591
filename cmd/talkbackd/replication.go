// Replication wiring for talkbackd: -listen-repl turns a durable server into
// a WAL-shipping primary; -replicate-from boots a read-only follower whose
// contents arrive over the wire. The follower serves the same query
// endpoints, narrates its lag in EXPLAIN answers, refuses DML with a 403 in
// English, and — when -max-lag is set — sheds reads with a narrated 503 once
// it falls too far behind.
package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/querytotext"
	"repro/internal/repl"
	"repro/internal/storage"
)

// replication is the server's replication role: exactly one of primary or
// follower is set; nil role fields mean a standalone server.
type replication struct {
	primary  *repl.Primary
	follower *repl.Follower
	addr     string // primary: listen address; follower: upstream address
	maxLag   uint64 // follower: refuse reads beyond this lag (0 = serve any)
}

// startPrimary attaches a replication primary to an already-durable system
// and serves followers on listenAddr.
func startPrimary(sys *core.System, listenAddr string) (*replication, error) {
	p, err := repl.NewPrimary(sys.Database(), repl.PrimaryOptions{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.Start(ln)
	return &replication{primary: p, addr: ln.Addr().String()}, nil
}

// buildFollower assembles a read-only follower: a bare-schema in-memory
// database kept converged by the replication link, with the system's
// narration switched to the follower's voice.
func buildFollower(schema, primaryAddr string, maxLag uint64) (*core.System, *replication, error) {
	var cfg core.Config
	sch := dataset.MovieSchema()
	switch schema {
	case "movie":
		cfg = core.MovieConfig()
	case "emp":
		cfg = core.EmpConfig()
		sch = dataset.EmpDeptSchema()
	default:
		return nil, nil, fmt.Errorf("unknown schema %q (want movie or emp)", schema)
	}
	db, err := storage.NewDatabase(sch)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.New(db, cfg)
	if err != nil {
		return nil, nil, err
	}
	f, err := repl.StartFollower(db, repl.FollowerOptions{Addr: primaryAddr})
	if err != nil {
		return nil, nil, err
	}
	sys.SetReplica(func() core.ReplicaStatus {
		st := f.Status()
		return core.ReplicaStatus{
			Follower:         true,
			AppliedSeq:       st.AppliedSeq,
			PrimarySeq:       st.PrimarySeq,
			Lag:              st.Lag,
			Connected:        st.Connected,
			Quarantined:      st.Quarantined,
			QuarantineSeq:    st.QuarantineSeq,
			QuarantineReason: st.QuarantineReason,
			Catchup:          st.Catchup,
		}
	})
	return sys, &replication{follower: f, addr: primaryAddr, maxLag: maxLag}, nil
}

// close tears the replication role down. For a follower this severs the link
// before the reader drain: no new records arrive mid-shutdown. For a primary
// it detaches the commit sink and drops every follower link; it runs before
// the final checkpoint so no sender is reading the log during rotation.
func (rp *replication) close() {
	if rp == nil {
		return
	}
	if rp.follower != nil {
		rp.follower.Close()
	}
	if rp.primary != nil {
		rp.primary.Close()
	}
}

// refuseStale sheds a read on a bounded-staleness follower: lag past
// -max-lag, or a latched quarantine, answers 503 in the follower's voice
// before the request pins a snapshot. Returns true when the request was
// answered here.
func (s *server) refuseStale(w http.ResponseWriter) bool {
	if s.repl == nil || s.repl.follower == nil || s.repl.maxLag == 0 {
		return false
	}
	st := s.repl.follower.Status()
	if st.Quarantined {
		w.Header().Set("Retry-After", "5")
		writeFields(w, http.StatusServiceUnavailable,
			"answer", querytotext.QuarantineEnglish(st.QuarantineSeq, st.QuarantineReason),
			"error", "follower quarantined: "+st.QuarantineReason)
		return true
	}
	if st.Lag > s.repl.maxLag {
		w.Header().Set("Retry-After", "1")
		writeFields(w, http.StatusServiceUnavailable,
			"answer", querytotext.FollowerLagEnglish(st.Lag, s.repl.maxLag)+" "+
				querytotext.CatchupEnglish(&st.Catchup),
			"error", fmt.Sprintf("follower lag %d exceeds -max-lag %d", st.Lag, s.repl.maxLag))
		return true
	}
	return false
}

// statsJSON renders the /stats replication section.
func (rp *replication) statsJSON() map[string]any {
	if rp.primary != nil {
		st := rp.primary.Stats()
		followers := make([]map[string]any, 0, len(st.Followers))
		for _, f := range st.Followers {
			followers = append(followers, map[string]any{
				"addr":             f.Addr,
				"ack_seq":          f.AckSeq,
				"sent_seq":         f.SentSeq,
				"lag":              f.Lag,
				"connected_for_ms": f.ConnectedFor.Milliseconds(),
			})
		}
		return map[string]any{
			"role":          "primary",
			"listen":        rp.addr,
			"last_seq":      st.LastSeq,
			"accepted":      st.Accepted,
			"dropped":       st.Dropped,
			"outbox_frames": st.OutboxFrames,
			"outbox_bytes":  st.OutboxBytes,
			"followers":     followers,
		}
	}
	st := rp.follower.Status()
	out := map[string]any{
		"role":        "follower",
		"primary":     rp.addr,
		"applied_seq": st.AppliedSeq,
		"primary_seq": st.PrimarySeq,
		"lag":         st.Lag,
		"max_lag":     rp.maxLag,
		"connected":   st.Connected,
		"reconnects":  st.Reconnects,
		"records":     st.Records,
		"duplicates":  st.Duplicates,
		"reseeds":     st.Reseeds,
		"quarantined": st.Quarantined,
		"catchup":     querytotext.CatchupEnglish(&st.Catchup),
	}
	if st.Quarantined {
		out["quarantine_seq"] = st.QuarantineSeq
		out["quarantine_reason"] = st.QuarantineReason
		out["narrative"] = querytotext.QuarantineEnglish(st.QuarantineSeq, st.QuarantineReason)
	}
	return out
}

// waitConnected gives a freshly-booted follower a moment to reach its
// primary so the first requests are answered from real data, logging either
// way; the reconnect loop keeps trying in the background regardless.
func waitConnected(f *repl.Follower, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := f.Status()
		if st.Connected || st.Quarantined {
			return st.Connected
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}
