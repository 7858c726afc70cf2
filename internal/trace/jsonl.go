package trace

// JSONL export: one JSON object per line. The first line of each run is a
// header {"run":N,"label":...}; every following line is one event with
// only the fields its Kind defines (see the field masks below). Encoding
// is hand-rolled on purpose: field order, float formatting ('g', shortest
// round-trip) and escaping are fixed here, so identical event buffers
// always serialize to identical bytes — the property the bit-identical
// replay tests pin.

import (
	"io"
	"strconv"
)

// Field-presence bits, one per Event field a Kind may populate.
const (
	fRole uint16 = 1 << iota
	fJob
	fStage
	fTask
	fAtt
	fMach
	fRack // machine_meta's rack, carried in Event.Src
	fLink
	fSrc
	fDst
	fFlow
	fValue
	fDetail
)

const taskIdent = fRole | fJob | fStage | fTask | fAtt

var kindFields = [numKinds]uint16{
	KMachineMeta:  fMach | fRack,
	KLinkMeta:     fLink | fValue | fDetail,
	KJobSubmit:    fJob | fValue | fDetail,
	KJobDone:      fJob,
	KJobFail:      fJob | fDetail,
	KTaskQueued:   taskIdent,
	KTaskStart:    taskIdent | fMach,
	KTaskFinish:   taskIdent | fMach | fValue,
	KTaskCrash:    taskIdent | fMach,
	KTaskAbort:    taskIdent | fMach,
	KTaskBackoff:  taskIdent | fValue,
	KShuffleDone:  fRole | fJob | fStage | fTask | fMach,
	KSlotsBusy:    fValue,
	KMachineDown:  fMach,
	KMachineUp:    fMach,
	KBlacklist:    fMach,
	KUnblacklist:  fMach,
	KAMFail:       fJob,
	KAMRestart:    fJob,
	KReplan:       fValue,
	KSimEnd:       fValue,
	KFlowStart:    fFlow | fJob | fSrc | fDst | fValue | fDetail,
	KFlowFinish:   fFlow | fValue,
	KFlowCancel:   fFlow | fValue,
	KFlowRate:     fFlow | fValue,
	KLinkUtil:     fLink | fValue,
	KLinkCap:      fLink | fValue,
	KDFSCreate:    fValue | fDetail,
	KDFSCorrupt:   fMach | fValue,
	KBlockRead:    fJob | fSrc | fDst | fValue | fDetail,
	KRepairStart:  fSrc | fDst | fValue,
	KRepairCommit: fSrc | fDst | fValue,
	KPlanStart:    fValue | fDetail,
	KPlanAssign:   fJob | fAtt | fValue | fDetail,
	KPlanDone:     fValue,

	KPlanBudgetExceeded: fValue,
	KDegrade:            fAtt | fValue,
	KReplanSuppressed:   fValue,
	KJobDeferred:        fJob | fValue,
	KJobShed:            fJob | fValue,

	KAudit: fDetail,
}

func appendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// appendFloat uses shortest round-trip formatting: deterministic and
// exact, so re-parsing a trace reproduces the simulated values bit for
// bit.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString escapes s as a JSON string (RFC 8259): quotes,
// backslashes and control bytes are escaped; everything else — including
// raw UTF-8 — passes through.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func appendField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return appendInt(b, v)
}

// appendEventJSON serializes one event as a single-line JSON object.
func appendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"t":`...)
	b = appendFloat(b, e.T)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	m := kindFields[e.Kind]
	if m&fRole != 0 && e.Role != RoleNone {
		b = append(b, `,"role":"`...)
		b = append(b, e.Role.String()...)
		b = append(b, '"')
	}
	if m&fJob != 0 {
		b = appendField(b, "job", int64(e.Job))
	}
	if m&fStage != 0 {
		b = appendField(b, "stage", int64(e.Stage))
	}
	if m&fTask != 0 {
		b = appendField(b, "task", int64(e.Task))
	}
	if m&fAtt != 0 {
		b = appendField(b, "att", int64(e.Att))
	}
	if m&fMach != 0 {
		b = appendField(b, "mach", int64(e.Mach))
	}
	if m&fRack != 0 {
		b = appendField(b, "rack", int64(e.Src))
	}
	if m&fLink != 0 {
		b = appendField(b, "link", int64(e.Link))
	}
	if m&fSrc != 0 {
		b = appendField(b, "src", int64(e.Src))
	}
	if m&fDst != 0 {
		b = appendField(b, "dst", int64(e.Dst))
	}
	if m&fFlow != 0 {
		b = appendField(b, "flow", e.Flow)
	}
	if m&fValue != 0 {
		b = append(b, `,"value":`...)
		b = appendFloat(b, e.Value)
	}
	if m&fDetail != 0 && e.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, e.Detail)
	}
	return append(b, '}')
}

// WriteJSONL writes every run, deterministically ordered, as JSONL: a
// {"run":N,"label":...} header line per run followed by its event lines.
func (c *Collector) WriteJSONL(w io.Writer) error {
	var b []byte
	for i, run := range c.sortedRuns() {
		b = b[:0]
		b = append(b, `{"run":`...)
		b = appendInt(b, int64(i))
		b = append(b, `,"label":`...)
		b = appendJSONString(b, run.label)
		b = append(b, `,"events":`...)
		b = appendInt(b, int64(len(run.t.events)))
		b = append(b, '}', '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
		if _, err := w.Write(run.blob); err != nil {
			return err
		}
	}
	return nil
}
