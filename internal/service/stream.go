package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
)

// logRecord is one record of a job's stream as the server keeps it: the
// wire record with OutputB64 left empty, and out, a reference to the
// base64 text of the chromosome's bytes in the result store. Every job
// that mirrors the record refers to the same file, and every
// subscriber writes it from a mapping of that file.
type logRecord struct {
	StreamRecord
	out ref
}

// encodeOutput returns the base64 text of a chromosome's result bytes, in
// exactly as many bytes as it needs. It is the only place the service
// encodes a payload, called where the bytes enter the process — a pool
// result in pooled — and it counts its calls.
func (s *Server) encodeOutput(raw []byte) []byte {
	s.encodes.Add(1)
	text := make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(text, raw)
	return text
}

// placeholder is what the envelope carries in place of the payload: one raw
// byte, which the encoder writes as placeholderText. placeholderKey occurs
// once in an encoded record, since the encoder escapes every quote inside
// a string.
const placeholderText = "AA=="

var (
	placeholder    = []byte{0}
	placeholderKey = []byte(`"output_b64":"` + placeholderText)
)

// lineWriter writes a job's stream records as NDJSON lines. Each line is
// byte-identical to what json.Encoder with SetEscapeHTML(false) writes for
// the wire record carrying the raw bytes: the record is encoded with a
// one-byte placeholder payload — a small envelope — and the stored text is
// written, from its file's mapping, where the placeholder's text stood.
type lineWriter struct {
	w   io.Writer
	st  *store
	env bytes.Buffer
	enc *json.Encoder
}

func newLineWriter(w io.Writer, st *store) *lineWriter {
	lw := &lineWriter{w: w, st: st}
	lw.enc = json.NewEncoder(&lw.env)
	lw.enc.SetEscapeHTML(false)
	return lw
}

// write writes rec's line; rec's payload must be held.
func (lw *lineWriter) write(rec *logRecord) error {
	env := rec.StreamRecord
	env.OutputB64 = nil
	if rec.out.n > 0 {
		env.OutputB64 = placeholder
	}
	lw.env.Reset()
	if err := lw.enc.Encode(&env); err != nil {
		return err
	}
	line := lw.env.Bytes()
	if rec.out.n == 0 {
		_, err := lw.w.Write(line)
		return err
	}
	at := bytes.Index(line, placeholderKey) + len(placeholderKey) - len(placeholderText)
	if _, err := lw.w.Write(line[:at]); err != nil {
		return err
	}
	if err := lw.st.writeTo(lw.w, rec.out); err != nil {
		return err
	}
	_, err := lw.w.Write(line[at+len(placeholderText):])
	return err
}
