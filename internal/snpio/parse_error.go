package snpio

import "fmt"

// ParseError is a malformed-record error with enough positional context to
// act on: the input line, the byte offset of that line's start, and the
// offending field. The quarantine machinery (internal/pipeline) uses the
// position to produce actionable failure reports, and record-level skipping
// keys off this type — a ParseError means the stream itself is still
// readable and the next record can be parsed.
type ParseError struct {
	// Format names the input format: "soap", "sam" or "fastq".
	Format string
	// Line is the 1-based line number of the offending record.
	Line int
	// Offset is the byte offset of the start of that line, or -1 when the
	// reader cannot track it.
	Offset int64
	// Field names the offending column ("position", "FLAG", ...); empty
	// for structural errors (wrong field count, truncated record).
	Field string
	// Msg describes the defect.
	Msg string
}

func (e *ParseError) Error() string {
	s := fmt.Sprintf("snpio: %s line %d", e.Format, e.Line)
	if e.Offset >= 0 {
		s += fmt.Sprintf(" (byte %d)", e.Offset)
	}
	if e.Field != "" {
		s += fmt.Sprintf(", field %s", e.Field)
	}
	return s + ": " + e.Msg
}

// Record reports the record's position, implementing the record-level
// error interface of internal/pipeline: a ParseError is scoped to one
// input record, so a fault-tolerant consumer may skip it and keep reading.
func (e *ParseError) Record() (line int, offset int64) { return e.Line, e.Offset }
