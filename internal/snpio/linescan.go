package snpio

import (
	"bufio"
	"io"
)

// maxLineBytes bounds one input line of the text formats; a longer line
// ends the stream with bufio.ErrTooLong. Scanners start with a buffer of
// lineBufBytes and grow towards the bound only if a line needs it: a
// reader is opened per input file and pass, and a buffer of the full
// bound was 1 MB to allocate and zero each time.
const (
	maxLineBytes = 1 << 20
	lineBufBytes = 64 << 10
)

// lineScanner is the line reader the SOAP, SAM and FASTQ parsers share. It
// tracks each line's number and the exact byte offset of its start: the
// offset advances by what the scanner consumed, terminator included, so it
// stays true on \r\n input and for a last line without a terminator.
type lineScanner struct {
	sc *bufio.Scanner
	// line is the 1-based number of the line last scanned and start the
	// byte offset of its first byte; next is the offset of the line after.
	line        int
	start, next int64
}

func newLineScanner(r io.Reader) *lineScanner {
	ls := &lineScanner{sc: bufio.NewScanner(r)}
	ls.sc.Buffer(make([]byte, lineBufBytes), maxLineBytes)
	ls.sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		ls.next += int64(advance)
		return advance, token, err
	})
	return ls
}

// scan advances to the next line, reporting false at the end of the input
// or on a read error (see err); line and start then keep describing the
// last line there was, which is where a truncated record is reported.
func (ls *lineScanner) scan() bool {
	start := ls.next
	if !ls.sc.Scan() {
		return false
	}
	ls.line, ls.start = ls.line+1, start
	return true
}

// bytes returns the current line without its terminator (\n or \r\n). The
// slice is overwritten by the next scan.
func (ls *lineScanner) bytes() []byte { return ls.sc.Bytes() }

// text returns the current line as a string of its own.
func (ls *lineScanner) text() string { return ls.sc.Text() }

func (ls *lineScanner) err() error { return ls.sc.Err() }
