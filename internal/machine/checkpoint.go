package machine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"locality/internal/checkpoint"
	"locality/internal/cohsim"
	"locality/internal/netsim"
	"locality/internal/procsim"
)

// This file connects the machine to package checkpoint: building a
// snapshot of every substrate at a P-cycle boundary, writing it
// atomically, and rebuilding a machine from one mid-stream. The
// correctness contract is byte-identity: restore at cycle C and run to
// the end, and the metrics, sweep rows, and trace events from C onward
// match the uninterrupted run exactly.

// CheckpointSpec configures crash-recovery snapshots.
type CheckpointSpec struct {
	// Every writes a periodic snapshot each time the machine crosses a
	// multiple of Every P-cycles. Zero disables periodic snapshots.
	Every int64
	// Dir is where snapshot files land. A non-empty Dir alone (Every
	// zero) still enables the final snapshot on cancellation and the
	// emergency snapshot on a watchdog stall.
	Dir string
	// Keep bounds how many periodic snapshots are retained; older ones
	// are deleted as new ones are written. Zero keeps all of them.
	// Cancellation and stall snapshots are never pruned.
	Keep int
}

// Validate checks the spec.
func (s CheckpointSpec) Validate() error {
	if s.Every < 0 {
		return fmt.Errorf("machine: checkpoint interval %d, must be ≥ 0", s.Every)
	}
	if s.Keep < 0 {
		return fmt.Errorf("machine: checkpoint keep %d, must be ≥ 0", s.Keep)
	}
	if s.Every > 0 && s.Dir == "" {
		return fmt.Errorf("machine: periodic checkpoints require a directory")
	}
	return nil
}

// fingerprint describes the configuration this machine was built from,
// in enough detail that restoring a checkpoint into a machine with a
// matching fingerprint reproduces the original run exactly.
func (m *Machine) fingerprint() checkpoint.Fingerprint {
	cfg := &m.cfg
	wid := ""
	if cfg.Workload != nil {
		if f, ok := cfg.Workload.(interface{ FingerprintID() string }); ok {
			wid = f.FingerprintID()
		} else {
			wid = fmt.Sprintf("%T", cfg.Workload)
		}
	}
	return checkpoint.Fingerprint{
		Radix:        cfg.Topo.K(),
		Dims:         cfg.Topo.N(),
		Contexts:     cfg.Contexts,
		MappingName:  cfg.Mapping.Name,
		Place:        append([]int(nil), cfg.Mapping.Place...),
		ClockRatio:   cfg.ClockRatio,
		BufferDepth:  cfg.BufferDepth,
		CacheLines:   cfg.CacheLines,
		LineSize:     cfg.LineSize,
		HWPointers:   cfg.HWPointers,
		LocalDelay:   cfg.LocalDelay,
		ReadCompute:  cfg.ReadCompute,
		WriteCompute: cfg.WriteCompute,
		Workload:     wid,
		Kernel:       uint8(cfg.Kernel),
	}
}

// Fingerprint returns the configuration identity a checkpoint of this
// machine would carry; its Digest is how ledger records and other
// external trackers name a machine configuration compactly.
func (m *Machine) Fingerprint() checkpoint.Fingerprint { return m.fingerprint() }

// BuildCheckpoint assembles a snapshot of the machine's complete
// simulation state at the current P-cycle boundary. chunkDone is how
// far into the current RunChecked call the machine is; a restored run
// uses it to re-align chunk boundaries with the interrupted call.
// Telemetry histograms and trace sinks are observational and are not
// captured; a restored run re-attaches fresh ones. The snapshot shares
// no mutable state with the machine (see detach), so it stays valid
// while the machine runs on.
func (m *Machine) BuildCheckpoint(chunkDone int64) *checkpoint.Checkpoint {
	ck := &checkpoint.Checkpoint{
		FP:          m.fingerprint(),
		PNow:        m.pnow,
		WindowStart: m.windowStart,
		KSWindow:    m.ksWindow,
		ChunkDone:   chunkDone,
		Kernel:      m.kernel.Checkpoint(),
		Procs:       make([]procsim.CheckpointState, len(m.procs)),
		Proto:       m.proto.Checkpoint(),
		Net:         m.net.Checkpoint(),
	}
	for i, p := range m.procs {
		ck.Procs[i] = p.Checkpoint()
	}
	detach(ck)
	return ck
}

// detach rewrites the freshly built protocol and network states of ck
// so they share nothing the machine will change: each in-flight
// message's payload becomes its cohsim.Msg value instead of the packet
// delivery recycles, and each transaction becomes a private copy, one
// per transaction, so references that shared a transaction share its
// copy.
func detach(ck *checkpoint.Checkpoint) {
	copies := make(map[*cohsim.Transaction]*cohsim.Transaction)
	own := func(t **cohsim.Transaction) {
		if *t == nil {
			return
		}
		c, ok := copies[*t]
		if !ok {
			c = cohsim.NewTransactionFromState((*t).State())
			copies[*t] = c
		}
		*t = c
	}
	p := &ck.Proto
	for i := range p.Nodes {
		n := &p.Nodes[i]
		for j := range n.Dir {
			de := &n.Dir[j]
			own(&de.Txn)
			for k := range de.Queue {
				own(&de.Queue[k].Txn)
			}
		}
		for j := range n.MSHR {
			own(&n.MSHR[j].Txn)
		}
	}
	for i := range p.Events {
		own(&p.Events[i].Act.Txn)
	}
	for i := range ck.Net.Messages {
		ms := &ck.Net.Messages[i]
		msg := ms.Payload.(*packet).msg
		own(&msg.Txn)
		ms.Payload = msg
	}
}

// WriteCheckpoint writes a snapshot to path atomically (temp file plus
// rename), so a crash mid-write never leaves a truncated .lckp behind.
func (m *Machine) WriteCheckpoint(path string, chunkDone int64) error {
	ck := m.BuildCheckpoint(chunkDone)
	tmp := path + ".tmp"
	if err := checkpoint.WriteFile(tmp, ck); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeAuto writes a snapshot into the configured directory named
// <prefix>-<cycle>.lckp and returns its path.
func (m *Machine) writeAuto(prefix string, chunkDone int64) (string, error) {
	if err := os.MkdirAll(m.cfg.Checkpoint.Dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(m.cfg.Checkpoint.Dir, fmt.Sprintf("%s-%d.lckp", prefix, m.pnow))
	if err := m.WriteCheckpoint(path, chunkDone); err != nil {
		return "", err
	}
	return path, nil
}

// prunePeriodic records a periodic snapshot and deletes the oldest
// ones beyond the configured Keep bound.
func (m *Machine) prunePeriodic(path string) {
	m.ckptHistory = append(m.ckptHistory, path)
	if keep := m.cfg.Checkpoint.Keep; keep > 0 {
		for len(m.ckptHistory) > keep {
			os.Remove(m.ckptHistory[0])
			m.ckptHistory = m.ckptHistory[1:]
		}
	}
}

// stallCheckpoint writes an emergency snapshot next to a watchdog
// stall and records its path in the report, so a stalled long run can
// be dissected — or resumed with a longer stall bound — instead of
// rerun from scratch.
func (m *Machine) stallCheckpoint(err error, chunkDone int64) {
	var rep *StallReport
	if !errors.As(err, &rep) || m.cfg.Checkpoint.Dir == "" {
		return
	}
	if path, werr := m.writeAuto("stall", chunkDone); werr == nil {
		rep.Checkpoint = path
		m.lastCkpt = path
	}
}

// LastCheckpoint returns the path of the most recent snapshot written,
// or "" if none has been.
func (m *Machine) LastCheckpoint() string { return m.lastCkpt }

// RestoreFrom builds a machine from cfg and overwrites its simulation
// state with a previously captured checkpoint, resuming mid-stream.
// cfg must describe the same machine the checkpoint was taken on —
// topology, mapping, workload, latencies, kernel mode — which is
// enforced by fingerprint comparison. Observational attachments
// (Trace, Telemetry, Checkpoint spec, Watchdog) may differ: they do
// not alter simulated behavior, though a restored run's trace
// naturally only contains events from the checkpoint cycle onward.
// Capture is the exception and is rejected:
// operations fetched before the checkpoint are not replayed, so a
// restored capture would be incomplete. The restored machine takes
// over the transactions ck names, so an in-memory snapshot restores
// once; restore it again from its encoded form.
func RestoreFrom(cfg Config, ck *checkpoint.Checkpoint) (*Machine, error) {
	if cfg.Capture != nil {
		return nil, fmt.Errorf("machine: cannot restore into a capturing run (operations before the checkpoint were never recorded)")
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if fp := m.fingerprint(); !fp.Equal(&ck.FP) {
		return nil, fmt.Errorf("machine: checkpoint was taken under a different configuration (fingerprint mismatch)")
	}
	for i, p := range m.procs {
		if err := p.Restore(ck.Procs[i]); err != nil {
			return nil, err
		}
	}
	if err := m.proto.Restore(ck.Proto); err != nil {
		return nil, err
	}
	// Each in-flight message's payload travels in a packet, as in a
	// running machine; the network rebuilds its own Message for it, so
	// only the payload half of the packet is used until delivery
	// recycles it. ck itself is left as it was.
	net := ck.Net
	net.Messages = make([]netsim.MessageState, len(ck.Net.Messages))
	for i, ms := range ck.Net.Messages {
		msg, ok := ms.Payload.(cohsim.Msg)
		if !ok {
			return nil, fmt.Errorf("machine: checkpoint message %d payload is %T, want cohsim.Msg", i, ms.Payload)
		}
		ms.Payload = m.newPacket(msg)
		net.Messages[i] = ms
	}
	if err := m.net.Restore(net); err != nil {
		return nil, err
	}
	if err := m.kernel.Restore(ck.Kernel); err != nil {
		return nil, err
	}
	m.pnow = ck.PNow
	m.windowStart = ck.WindowStart
	m.ksWindow = ck.KSWindow
	m.resumePhase = ck.ChunkDone
	return m, nil
}
