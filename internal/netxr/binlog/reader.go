package binlog

import (
	"encoding/binary"
	"fmt"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// Log is a fully decoded capture. Records hold wire frames whose
// Payload fields alias the input buffer — keep the buffer alive as
// long as the records.
type Log struct {
	Meta    Meta
	Records []Record
	// Torn counts tail records skipped by torn-write recovery (0 or 1:
	// a crash mid-append tears at most the final record). TornBytes is
	// the size of the skipped tail region.
	Torn      int
	TornBytes int
}

// DecodeLog parses a complete capture from b. A truncated or
// CRC-corrupt FINAL record — the signature of a crash mid-append — is
// skipped and counted (Log.Torn, illixr_binlog_torn_total), never a
// panic or a silent misparse. Corruption with more records following
// is unrecoverable for a length-prefixed format and returns ErrCorrupt.
// reg may be nil.
func DecodeLog(b []byte, reg *telemetry.Registry) (*Log, error) {
	m := newMetrics(reg)
	meta, off, err := decodeHeader(b)
	if err != nil {
		return nil, err
	}
	l := &Log{Meta: meta}
	for off < len(b) {
		rec, n, err := decodeRecord(b[off:])
		if err == nil {
			l.Records = append(l.Records, rec)
			off += n
			continue
		}
		if isTornTail(b[off:], err) {
			l.Torn++
			l.TornBytes = len(b) - off
			m.torn.Inc()
			return l, nil
		}
		return nil, fmt.Errorf("binlog: record at offset %d: %w", off, err)
	}
	return l, nil
}

// isTornTail reports whether a record decode failure at the end of the
// buffer is a torn write (recoverable skip) rather than mid-log
// corruption. Truncation is always torn; a CRC/body failure is torn
// only when the record's declared extent ends exactly at EOF — i.e. it
// was the final record.
func isTornTail(rest []byte, err error) bool {
	if err == errTruncated {
		return true
	}
	n, vlen := binary.Uvarint(rest)
	if vlen <= 0 || n > MaxRecord {
		return false
	}
	return vlen+int(n)+4 == len(rest)
}

// CountByType tallies the decoded records per message type.
func (l *Log) CountByType() map[wire.Type]uint64 {
	out := map[wire.Type]uint64{}
	for _, r := range l.Records {
		out[r.Frame.Type]++
	}
	return out
}
