package wifi

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBadBody reports a body that failed to parse.
var ErrBadBody = errors.New("wifi: malformed frame body")

// BeaconBody is the body of beacon and probe-response frames.
type BeaconBody struct {
	SSID         string
	Channel      uint8
	Capabilities uint16
	// BackhaulKbps advertises the AP's wired capacity. Real beacons carry
	// no such element; the simulator exposes it so experiment code can
	// implement the "offered bandwidth" oracle of the paper's §2.1.3
	// optimization without a side channel.
	BackhaulKbps uint32

	pooled bool // owned by a Pool; recycled with its frame
}

// BodySize implements Body.
func (b *BeaconBody) BodySize() int { return 1 + len(b.SSID) + 1 + 2 + 4 }

// AppendBody implements Body.
func (b *BeaconBody) AppendBody(out []byte) []byte {
	out = append(out, byte(len(b.SSID)))
	out = append(out, b.SSID...)
	out = append(out, b.Channel)
	out = binary.BigEndian.AppendUint16(out, b.Capabilities)
	out = binary.BigEndian.AppendUint32(out, b.BackhaulKbps)
	return out
}

func decodeBeacon(b []byte) (*BeaconBody, error) {
	if len(b) < 1 {
		return nil, ErrBadBody
	}
	n := int(b[0])
	if len(b) < 1+n+7 {
		return nil, ErrBadBody
	}
	body := &BeaconBody{SSID: string(b[1 : 1+n])}
	rest := b[1+n:]
	body.Channel = rest[0]
	body.Capabilities = binary.BigEndian.Uint16(rest[1:3])
	body.BackhaulKbps = binary.BigEndian.Uint32(rest[3:7])
	return body, nil
}

// ProbeReqBody is the body of a probe request. An empty SSID is the
// wildcard probe used during opportunistic scanning.
type ProbeReqBody struct {
	SSID string

	pooled bool // owned by a Pool; recycled with its frame
}

// BodySize implements Body.
func (p *ProbeReqBody) BodySize() int { return 1 + len(p.SSID) }

// AppendBody implements Body.
func (p *ProbeReqBody) AppendBody(out []byte) []byte {
	out = append(out, byte(len(p.SSID)))
	return append(out, p.SSID...)
}

func decodeProbeReq(b []byte) (*ProbeReqBody, error) {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return nil, ErrBadBody
	}
	return &ProbeReqBody{SSID: string(b[1 : 1+int(b[0])])}, nil
}

// AuthBody is the body of the authentication exchange.
type AuthBody struct {
	Algorithm uint16 // 0 = open system
	Status    uint16 // 0 = success (responses only)
}

// BodySize implements Body.
func (a *AuthBody) BodySize() int { return 4 }

// AppendBody implements Body.
func (a *AuthBody) AppendBody(out []byte) []byte {
	out = binary.BigEndian.AppendUint16(out, a.Algorithm)
	return binary.BigEndian.AppendUint16(out, a.Status)
}

func decodeAuth(b []byte) (*AuthBody, error) {
	if len(b) < 4 {
		return nil, ErrBadBody
	}
	return &AuthBody{
		Algorithm: binary.BigEndian.Uint16(b[0:2]),
		Status:    binary.BigEndian.Uint16(b[2:4]),
	}, nil
}

// AssocReqBody is the body of an association request.
type AssocReqBody struct {
	SSID           string
	ListenInterval uint16

	pooled bool // owned by a Pool; recycled with its frame
}

// BodySize implements Body.
func (a *AssocReqBody) BodySize() int { return 1 + len(a.SSID) + 2 }

// AppendBody implements Body.
func (a *AssocReqBody) AppendBody(out []byte) []byte {
	out = append(out, byte(len(a.SSID)))
	out = append(out, a.SSID...)
	return binary.BigEndian.AppendUint16(out, a.ListenInterval)
}

func decodeAssocReq(b []byte) (*AssocReqBody, error) {
	if len(b) < 1 {
		return nil, ErrBadBody
	}
	n := int(b[0])
	if len(b) < 1+n+2 {
		return nil, ErrBadBody
	}
	return &AssocReqBody{
		SSID:           string(b[1 : 1+n]),
		ListenInterval: binary.BigEndian.Uint16(b[1+n : 3+n]),
	}, nil
}

// AssocRespBody is the body of an association response.
type AssocRespBody struct {
	Status uint16 // 0 = success
	AID    uint16

	pooled bool // owned by a Pool; recycled with its frame
}

// BodySize implements Body.
func (a *AssocRespBody) BodySize() int { return 4 }

// AppendBody implements Body.
func (a *AssocRespBody) AppendBody(out []byte) []byte {
	out = binary.BigEndian.AppendUint16(out, a.Status)
	return binary.BigEndian.AppendUint16(out, a.AID)
}

func decodeAssocResp(b []byte) (*AssocRespBody, error) {
	if len(b) < 4 {
		return nil, ErrBadBody
	}
	return &AssocRespBody{
		Status: binary.BigEndian.Uint16(b[0:2]),
		AID:    binary.BigEndian.Uint16(b[2:4]),
	}, nil
}

// DeauthBody carries the deauthentication reason code.
type DeauthBody struct {
	Reason uint16
}

// BodySize implements Body.
func (d *DeauthBody) BodySize() int { return 2 }

// AppendBody implements Body.
func (d *DeauthBody) AppendBody(out []byte) []byte {
	return binary.BigEndian.AppendUint16(out, d.Reason)
}

func decodeDeauth(b []byte) (*DeauthBody, error) {
	if len(b) < 2 {
		return nil, ErrBadBody
	}
	return &DeauthBody{Reason: binary.BigEndian.Uint16(b[0:2])}, nil
}

// Payload protocols carried inside data frames.
const (
	ProtoDHCP = 1
	ProtoTCP  = 2
	ProtoPing = 3
)

// DataBody is the body of a data frame: a protocol tag, real header
// bytes, and a virtual payload length. The virtual length is accounted in
// BodySize (and therefore in airtime) without materializing bulk bytes —
// the standard flow/packet hybrid used by event simulators.
type DataBody struct {
	Proto      uint8
	Header     []byte
	VirtualLen uint16

	pooled bool // owned by a Pool; recycled with its frame
}

// BodySize implements Body.
func (d *DataBody) BodySize() int { return 1 + 2 + 2 + len(d.Header) + int(d.VirtualLen) }

// AppendBody implements Body. The virtual payload encodes as zeros so the
// wire form stays exactly BodySize bytes.
func (d *DataBody) AppendBody(out []byte) []byte {
	out = append(out, d.Proto)
	out = binary.BigEndian.AppendUint16(out, uint16(len(d.Header)))
	out = binary.BigEndian.AppendUint16(out, d.VirtualLen)
	out = append(out, d.Header...)
	return append(out, make([]byte, d.VirtualLen)...)
}

func decodeData(b []byte) (*DataBody, error) {
	if len(b) < 5 {
		return nil, ErrBadBody
	}
	hdrLen := int(binary.BigEndian.Uint16(b[1:3]))
	virt := binary.BigEndian.Uint16(b[3:5])
	if len(b) < 5+hdrLen+int(virt) {
		return nil, ErrBadBody
	}
	d := &DataBody{Proto: b[0], VirtualLen: virt}
	if hdrLen > 0 {
		d.Header = append([]byte(nil), b[5:5+hdrLen]...)
	}
	return d, nil
}

func decodeBody(t FrameType, b []byte) (Body, error) {
	switch t {
	case TypeBeacon, TypeProbeResp:
		return decodeBeacon(b)
	case TypeProbeReq:
		return decodeProbeReq(b)
	case TypeAuthReq, TypeAuthResp:
		return decodeAuth(b)
	case TypeAssocReq:
		return decodeAssocReq(b)
	case TypeAssocResp:
		return decodeAssocResp(b)
	case TypeDeauth:
		return decodeDeauth(b)
	case TypeData:
		return decodeData(b)
	case TypeNull, TypePSPoll, TypeAck:
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: %s carries no body", ErrBadBody, t)
		}
		return nil, nil
	}
	return nil, ErrBadType
}
