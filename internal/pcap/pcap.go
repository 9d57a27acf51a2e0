// Package pcap exports simulated over-the-air traffic as classic pcap
// capture files, so runs can be inspected with standard tooling. Frames
// are written in this simulator's own wire format (see internal/wifi),
// not real 802.11 framing, so captures use LINKTYPE_USER0; a dissector
// needs only the 24-byte header layout documented in wifi.Frame.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"spider/internal/radio"
	"spider/internal/wifi"
)

// LinkTypeUser0 is the pcap link type reserved for private use.
const LinkTypeUser0 = 147

const (
	magicMicroseconds = 0xa1b2c3d4
	versionMajor      = 2
	versionMinor      = 4
	snapLen           = 65535
)

// Record is one captured frame.
type Record struct {
	// At is the virtual capture time (frame end of transmission).
	At time.Duration
	// Data is the encoded frame.
	Data []byte
}

// Writer emits a pcap stream.
type Writer struct {
	w io.Writer
}

// NewWriter writes the pcap global header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeUser0)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	return &Writer{w: w}, nil
}

// Write emits one record.
func (pw *Writer) Write(rec Record) error {
	hdr := make([]byte, 16)
	us := rec.At.Microseconds()
	binary.LittleEndian.PutUint32(hdr[0:], uint32(us/1e6))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(us%1e6))
	n := len(rec.Data)
	if n > snapLen {
		n = snapLen
	}
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(rec.Data)))
	if _, err := pw.w.Write(hdr); err != nil {
		return fmt.Errorf("pcap: record header: %w", err)
	}
	if _, err := pw.w.Write(rec.Data[:n]); err != nil {
		return fmt.Errorf("pcap: record data: %w", err)
	}
	return nil
}

// Capture taps a medium and accumulates records in memory (bounded).
type Capture struct {
	Records []Record
	limit   int
	Dropped int
}

// NewCapture attaches a tap to the medium, keeping at most limit records
// (0 means 1<<20). Only one capture per medium; a later capture replaces
// an earlier tap.
func NewCapture(m *radio.Medium, limit int) *Capture {
	if limit <= 0 {
		limit = 1 << 20
	}
	c := &Capture{limit: limit}
	m.SetTap(func(f *wifi.Frame, _ int, at time.Duration) {
		if len(c.Records) >= c.limit {
			c.Dropped++
			return
		}
		c.Records = append(c.Records, Record{At: at, Data: f.Encode()})
	})
	return c
}

// Dump writes the capture as a pcap stream and returns the number of
// records written.
func (c *Capture) Dump(w io.Writer) (int, error) {
	pw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	for i, rec := range c.Records {
		if err := pw.Write(rec); err != nil {
			return i, err
		}
	}
	return len(c.Records), nil
}
