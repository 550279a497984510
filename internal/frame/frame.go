// Package frame implements Braidio's link-layer framing: a preamble for
// envelope-detector settling and bit synchronization, a sync word, a
// compact header, the payload, and a CRC-16/CCITT trailer.
//
// All three link modes share this frame format so that mode switches are
// transparent to upper layers; the header carries the fields the braided
// MAC needs (mode, sequence, battery telemetry for the carrier-offload
// exchange, and an ACK bit).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"braidio/internal/units"
)

// Frame layout constants (bytes).
const (
	// PreambleLen is the alternating 0xAA training sequence that lets
	// the charge pump and comparator settle and the receiver recover
	// bit timing.
	PreambleLen = 4
	// SyncLen is the frame-start marker length.
	SyncLen = 2
	// HeaderLen is the encoded Header size.
	HeaderLen = 8
	// CRCLen is the CRC-16 trailer.
	CRCLen = 2
	// Overhead is everything but payload.
	Overhead = PreambleLen + SyncLen + HeaderLen + CRCLen
	// MaxPayload keeps frames short enough that per-frame error rates
	// stay manageable on the weak links.
	MaxPayload = 240
	// DefaultPayload is the payload size used by the characterization
	// experiments: with Overhead = 16 it yields the 93.75% framing
	// efficiency the energy model uses.
	DefaultPayload = MaxPayload
)

// SyncWord marks the start of a frame after the preamble.
var SyncWord = [SyncLen]byte{0x2D, 0xD4}

// Type enumerates frame types.
type Type uint8

// Frame types.
const (
	// TypeData carries payload.
	TypeData Type = iota
	// TypeAck acknowledges a data frame.
	TypeAck
	// TypeProbe measures link SNR/bitrate (the §4.2 probing step).
	TypeProbe
	// TypeBattery carries battery telemetry for the offload exchange.
	TypeBattery
	// TypeModeSwitch announces an operating-mode change.
	TypeModeSwitch
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeProbe:
		return "probe"
	case TypeBattery:
		return "battery"
	case TypeModeSwitch:
		return "mode-switch"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header is the decoded frame header.
type Header struct {
	// Type of the frame.
	Type Type
	// Mode is the link mode the frame was sent in (0 active, 1 passive,
	// 2 backscatter), mirrored from the MAC for cross-checking.
	Mode uint8
	// Seq is the sequence number.
	Seq uint16
	// Length is the payload length in bytes.
	Length uint8
	// Battery is coarse battery telemetry: the sender's remaining
	// energy quantized to 1/255 of full scale, used by the carrier
	// offload algorithm's energy exchange.
	Battery uint8
	// Ack piggybacks the last in-order sequence received.
	Ack uint16
}

// Frame is a full decoded frame.
type Frame struct {
	Header  Header // the decoded header
	Payload []byte // the payload bytes the header describes
}

// Errors returned by Decode.
var (
	ErrTooShort  = errors.New("frame: buffer too short")
	ErrNoSync    = errors.New("frame: sync word not found")
	ErrBadCRC    = errors.New("frame: CRC mismatch")
	ErrBadLength = errors.New("frame: length field exceeds buffer")
	ErrOversized = errors.New("frame: payload exceeds MaxPayload")
)

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over data.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Encode serializes a frame: preamble, sync, header, payload, CRC over
// header+payload.
func Encode(h Header, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, ErrOversized
	}
	h.Length = uint8(len(payload))
	buf := make([]byte, 0, Overhead+len(payload))
	for i := 0; i < PreambleLen; i++ {
		buf = append(buf, 0xAA)
	}
	buf = append(buf, SyncWord[:]...)
	hdr := make([]byte, HeaderLen)
	hdr[0] = byte(h.Type)
	hdr[1] = h.Mode
	binary.BigEndian.PutUint16(hdr[2:], h.Seq)
	hdr[4] = h.Length
	hdr[5] = h.Battery
	binary.BigEndian.PutUint16(hdr[6:], h.Ack)
	buf = append(buf, hdr...)
	buf = append(buf, payload...)
	crc := CRC16(buf[PreambleLen+SyncLen:])
	var tail [CRCLen]byte
	binary.BigEndian.PutUint16(tail[:], crc)
	buf = append(buf, tail[:]...)
	return buf, nil
}

// Decode parses a frame from a buffer that begins at the preamble. It
// verifies the sync word and CRC.
func Decode(buf []byte) (*Frame, error) {
	if len(buf) < Overhead {
		return nil, ErrTooShort
	}
	body := buf[PreambleLen:]
	if body[0] != SyncWord[0] || body[1] != SyncWord[1] {
		return nil, ErrNoSync
	}
	body = body[SyncLen:]
	if len(body) < HeaderLen+CRCLen {
		return nil, ErrTooShort
	}
	length := int(body[4])
	if len(body) < HeaderLen+length+CRCLen {
		return nil, ErrBadLength
	}
	msg := body[:HeaderLen+length]
	want := binary.BigEndian.Uint16(body[HeaderLen+length:])
	if CRC16(msg) != want {
		return nil, ErrBadCRC
	}
	h := Header{
		Type:    Type(body[0]),
		Mode:    body[1],
		Seq:     binary.BigEndian.Uint16(body[2:]),
		Length:  body[4],
		Battery: body[5],
		Ack:     binary.BigEndian.Uint16(body[6:]),
	}
	payload := append([]byte(nil), body[HeaderLen:HeaderLen+length]...)
	return &Frame{Header: h, Payload: payload}, nil
}

// WireSize returns the on-air size in bytes of a frame with the given
// payload length.
func WireSize(payloadLen int) int { return Overhead + payloadLen }

// WireBits returns the on-air size in bits.
func WireBits(payloadLen int) int { return 8 * WireSize(payloadLen) }

// Efficiency returns payload bits / on-air bits for a payload length.
func Efficiency(payloadLen int) float64 {
	if payloadLen < 0 {
		panic("frame: negative payload length")
	}
	return float64(8*payloadLen) / float64(WireBits(payloadLen))
}

// FrameErrorRate converts a bit error rate into the probability that a
// frame of the given payload length has at least one bit error:
// 1 − (1−BER)^bits.
func FrameErrorRate(ber float64, payloadLen int) float64 {
	if ber < 0 || ber > 1 {
		panic(fmt.Sprintf("frame: BER %v outside [0,1]", ber))
	}
	bits := float64(WireBits(payloadLen))
	return 1 - pow1m(ber, bits)
}

// pow1m computes (1-p)^n accurately for small p via log1p.
func pow1m(p, n float64) float64 {
	if p >= 1 {
		return 0
	}
	return math.Exp(n * math.Log1p(-p))
}

// Goodput returns the effective payload throughput of a link running at
// rate r with the given BER and payload size, assuming lost frames are
// retransmitted (selective repeat): rate × efficiency × (1 − FER).
func Goodput(r units.BitRate, ber float64, payloadLen int) units.BitRate {
	fer := FrameErrorRate(ber, payloadLen)
	return units.BitRate(float64(r) * Efficiency(payloadLen) * (1 - fer))
}

// ExpectedTransmissions returns the mean number of transmissions per
// frame under independent losses: 1/(1−FER). Infinite at FER = 1.
func ExpectedTransmissions(ber float64, payloadLen int) float64 {
	fer := FrameErrorRate(ber, payloadLen)
	if fer >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - fer)
}
