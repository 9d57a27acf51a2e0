package wifi

import "time"

// Channel numbers and orthogonality. The paper schedules among the three
// orthogonal 2.4 GHz channels 1, 6, and 11, where almost all urban APs
// sit (83% in Boston per Cabernet, 95% in the paper's Amherst survey).
const (
	MinChannel = 1
	MaxChannel = 11
)

// OrthogonalChannels are the non-overlapping 2.4 GHz channels.
var OrthogonalChannels = []int{1, 6, 11}

// ValidChannel reports whether ch is a usable 2.4 GHz channel number.
func ValidChannel(ch int) bool { return ch >= MinChannel && ch <= MaxChannel }

// Tunable reports whether a radio can sit on ch: a valid channel, or 0
// for deaf (mid-reset).
func Tunable(ch int) bool { return ch == 0 || ValidChannel(ch) }

// Rate constants for the 802.11b-class link the paper assumes
// (Bw = 11 Mbps wireless bandwidth).
const (
	// DataRateKbps is the payload modulation rate.
	DataRateKbps = 11_000
	// BasicRateKbps is the rate for preamble-adjacent management traffic.
	BasicRateKbps = 1_000
)

// MAC/PHY timing constants (802.11b long preamble).
const (
	// PLCPOverhead is preamble + PLCP header airtime.
	PLCPOverhead = 192 * time.Microsecond
	// SIFS separates a frame from its ACK.
	SIFS = 10 * time.Microsecond
	// DIFS precedes a contended transmission.
	DIFS = 50 * time.Microsecond
	// AvgBackoff approximates the mean contention-window wait on a
	// lightly loaded channel (CWmin 31 slots of 20µs, halved).
	AvgBackoff = 310 * time.Microsecond
	// AckAirtime is the airtime of the link-layer ACK (14 bytes at the
	// basic rate plus PLCP).
	AckAirtime = PLCPOverhead + 112*time.Microsecond
)

// Airtime returns the channel occupancy of transmitting size bytes at
// rateKbps, including preamble. It does not include inter-frame spacing;
// TxTime adds that.
func Airtime(size int, rateKbps int) time.Duration {
	if size < 0 {
		size = 0
	}
	if rateKbps <= 0 {
		rateKbps = DataRateKbps
	}
	bits := float64(size * 8)
	return PLCPOverhead + time.Duration(bits/float64(rateKbps)*float64(time.Millisecond))
}

// TxTime returns the full channel time consumed by one acknowledged
// transmission of a frame at the default 11 Mbps data rate: DIFS + mean
// backoff + frame + SIFS + ACK for unicast data/management, or just
// DIFS + backoff + frame for broadcast and control frames (which are not
// acknowledged).
func TxTime(f *Frame) time.Duration { return TxTimeRate(f, DataRateKbps) }

// OFDM (802.11g) timing constants, used for data rates of 24 Mbps and
// up: short slots and preamble make the per-frame overhead a fraction of
// the 802.11b values.
const (
	ofdmPreamble   = 26 * time.Microsecond
	ofdmSIFS       = 10 * time.Microsecond
	ofdmDIFS       = 34 * time.Microsecond
	ofdmAvgBackoff = 67 * time.Microsecond // CWmin 15 × 9 µs slots, halved
	ofdmAckAirtime = ofdmPreamble + 24*time.Microsecond
)

// TxTimeRate is TxTime with an explicit data rate in kbps (802.11g-class
// deployments modulate data at 24–54 Mbps; management stays at the basic
// rate regardless). Rates ≥ 24 Mbps use OFDM overhead timing.
func TxTimeRate(f *Frame, dataRateKbps int) time.Duration {
	rate := dataRateKbps
	if rate <= 0 {
		rate = DataRateKbps
	}
	ofdm := rate >= 24_000
	if f.Type.IsManagement() {
		rate = BasicRateKbps
		ofdm = false
	}
	if !ofdm {
		t := DIFS + AvgBackoff + Airtime(f.Size(), rate)
		if !f.DA.IsBroadcast() && f.Type != TypeAck {
			t += SIFS + AckAirtime
		}
		return t
	}
	bits := float64(f.Size() * 8)
	t := ofdmDIFS + ofdmAvgBackoff + ofdmPreamble +
		time.Duration(bits/float64(rate)*float64(time.Millisecond))
	if !f.DA.IsBroadcast() && f.Type != TypeAck {
		t += ofdmSIFS + ofdmAckAirtime
	}
	return t
}
