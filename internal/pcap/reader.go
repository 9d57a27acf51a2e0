package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Reading errors.
var (
	ErrBadMagic    = errors.New("pcap: bad magic (not a microsecond little-endian capture)")
	ErrBadLinkType = errors.New("pcap: link type is not LINKTYPE_USER0 (not a simulator capture)")
	ErrTruncated   = errors.New("pcap: truncated record")
)

// Reader consumes a pcap stream produced by Writer.
type Reader struct {
	r io.Reader
}

// NewReader validates the global header and returns a Reader. A capture
// of any other link type is refused: its records are not frames in the
// simulator's wire format.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicMicroseconds {
		return nil, ErrBadMagic
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != LinkTypeUser0 {
		return nil, fmt.Errorf("%w: link type %d", ErrBadLinkType, lt)
	}
	return &Reader{r: r}, nil
}

// Next returns the next record, or io.EOF at a clean end of stream.
func (pr *Reader) Next() (Record, error) {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(pr.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	sec := binary.LittleEndian.Uint32(hdr[0:])
	usec := binary.LittleEndian.Uint32(hdr[4:])
	caplen := binary.LittleEndian.Uint32(hdr[8:])
	if caplen > snapLen {
		return Record{}, fmt.Errorf("%w: caplen %d", ErrTruncated, caplen)
	}
	data := make([]byte, caplen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	at := time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond
	return Record{At: at, Data: data}, nil
}

// ReadAll drains the stream.
func ReadAll(r io.Reader) ([]Record, error) {
	pr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Record
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
