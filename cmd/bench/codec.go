package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"locality/internal/checkpoint"
	"locality/internal/machine"
	"locality/internal/replay"
)

// codecP names the two artefacts the codec workload round-trips: a
// checkpoint of the warmed scale-100x100 random machine, and a
// reference trace captured from one sweep-8x8 cell.
type codecP struct {
	Checkpoint simParams // its first cell after Warmup P-cycles
	Capture    simParams // its first cell, run to the end of its window
}

func codecParams(short bool) any {
	ck := scaleParams(short).(simParams)
	ck.Mappings = "random:%[1]d"
	lref := sweepParams(short).(simParams)
	lref.Contexts, lref.Mappings = []int{2}, "random:%[1]d"
	return codecP{Checkpoint: ck, Capture: lref}
}

type codecSession struct {
	cfg   machine.Config // the checkpointed machine's configuration
	mach  *machine.Machine
	trace *replay.Trace
	// ckSize and lrSize are the encoded sizes; output buffers start at
	// them, so the writers' own work is timed, not buffer growth.
	ckSize, lrSize int
}

// setupCodec builds both artefacts: it warms the checkpoint machine and
// runs the capturing cell.
func setupCodec(e *env) (session, error) {
	p := codecParams(e.short).(codecP)
	ctx := context.Background()
	ck, err := newSimSession(e, p.Checkpoint)
	if err != nil {
		return nil, err
	}
	s := &codecSession{cfg: ck.config(0)}
	if s.mach, err = machine.New(s.cfg); err != nil {
		return nil, err
	}
	if _, err := s.mach.Execute(ctx, machine.RunSpec{Cycles: p.Checkpoint.Warmup}); err != nil {
		return nil, err
	}
	capt, err := newSimSession(e, p.Capture)
	if err != nil {
		return nil, err
	}
	cfg := capt.config(0)
	cfg.Capture = replay.NewCapture()
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Execute(ctx, machine.RunSpec{Warmup: p.Capture.Warmup, Window: p.Capture.Window}); err != nil {
		return nil, err
	}
	if s.trace, err = m.CapturedTrace(p.Capture.Warmup, p.Capture.Window); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *codecSession) close() {}

// codecTimes is one round trip's component times.
type codecTimes struct {
	build, ckWrite, ckRead, restore, lrWrite, lrRead time.Duration
}

func (t codecTimes) total() time.Duration {
	return t.build + t.ckWrite + t.ckRead + t.restore + t.lrWrite + t.lrRead
}

// roundTrip encodes and decodes both artefacts once, timing each call,
// then checks (untimed) that every decoded value re-encodes to the same
// bytes, the restored machine included.
func (s *codecSession) roundTrip(tr *tracer, op int64) (codecTimes, int, int, error) {
	rt := tr.begin("codec.roundtrip", 0, op)
	defer tr.end(rt)
	var t codecTimes
	var ck, ck2 *checkpoint.Checkpoint
	var ckBuf, lrBuf bytes.Buffer
	ckBuf.Grow(s.ckSize)
	lrBuf.Grow(s.lrSize)
	var restored *machine.Machine
	var tr2 *replay.Trace
	for _, step := range []struct {
		name string
		d    *time.Duration
		call func() error
	}{
		{"machine.BuildCheckpoint", &t.build, func() error { ck = s.mach.BuildCheckpoint(0); return nil }},
		{"checkpoint.Write", &t.ckWrite, func() error { return checkpoint.Write(&ckBuf, ck) }},
		{"checkpoint.Read", &t.ckRead, func() (err error) { ck2, err = checkpoint.Read(bytes.NewReader(ckBuf.Bytes())); return err }},
		{"machine.RestoreFrom", &t.restore, func() (err error) { restored, err = machine.RestoreFrom(s.cfg, ck2); return err }},
		{"replay.Write", &t.lrWrite, func() error { return replay.Write(&lrBuf, s.trace) }},
		{"replay.Read", &t.lrRead, func() (err error) { tr2, err = replay.Read(bytes.NewReader(lrBuf.Bytes())); return err }},
	} {
		sp := tr.begin(step.name, rt, op)
		t0 := time.Now()
		err := step.call()
		*step.d = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return t, 0, 0, fmt.Errorf("%s: %w", step.name, err)
		}
	}
	var again bytes.Buffer
	for _, c := range []struct {
		what   string
		encode func() error
		want   []byte
	}{
		{"decoded checkpoint", func() error { return checkpoint.Write(&again, ck2) }, ckBuf.Bytes()},
		{"restored machine", func() error { return checkpoint.Write(&again, restored.BuildCheckpoint(0)) }, ckBuf.Bytes()},
		{"decoded trace", func() error { return replay.Write(&again, tr2) }, lrBuf.Bytes()},
	} {
		again.Reset()
		if err := c.encode(); err != nil {
			return t, 0, 0, err
		}
		if !bytes.Equal(again.Bytes(), c.want) {
			return t, 0, 0, fmt.Errorf("%s does not re-encode byte-identical", c.what)
		}
	}
	s.ckSize, s.lrSize = ckBuf.Len(), lrBuf.Len()
	return t, ckBuf.Len(), lrBuf.Len(), nil
}

func (s *codecSession) measure(ctx context.Context, d time.Duration, tr *tracer) (*sample, error) {
	smp := &sample{layers: map[string]float64{}}
	var sum codecTimes
	var ckBytes, lrBytes int
	start := time.Now()
	for op := int64(0); op == 0 || time.Since(start) < d; op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		smp.attempted++
		t, ckN, lrN, err := s.roundTrip(tr, op)
		if err != nil {
			smp.failed++
			smp.note(err.Error())
			continue
		}
		smp.ops = append(smp.ops, t.total())
		sum.build += t.build
		sum.ckWrite += t.ckWrite
		sum.ckRead += t.ckRead
		sum.restore += t.restore
		sum.lrWrite += t.lrWrite
		sum.lrRead += t.lrRead
		ckBytes, lrBytes = ckN, lrN
	}
	n := float64(len(smp.ops))
	// The work is the bytes each format's Write produced and its Read
	// consumed, over the time of those four calls alone.
	codecTime := sum.ckWrite + sum.ckRead + sum.lrWrite + sum.lrRead
	smp.workPerS = 2 * float64(ckBytes+lrBytes) * n / codecTime.Seconds()
	smp.heapMB = liveHeapMB()
	mbps := func(bytes int, d time.Duration) float64 { return float64(bytes) * n / 1e6 / d.Seconds() }
	smp.layers["checkpoint.bytes"] = float64(ckBytes)
	smp.layers["replay.bytes"] = float64(lrBytes)
	smp.layers["checkpoint.write_mb_per_s"] = mbps(ckBytes, sum.ckWrite)
	smp.layers["checkpoint.read_mb_per_s"] = mbps(ckBytes, sum.ckRead)
	smp.layers["replay.write_mb_per_s"] = mbps(lrBytes, sum.lrWrite)
	smp.layers["replay.read_mb_per_s"] = mbps(lrBytes, sum.lrRead)
	smp.layers["machine.build_checkpoint_ms"] = millis(sum.build) / n
	smp.layers["machine.restore_ms"] = millis(sum.restore) / n
	return smp, nil
}
