package spdy

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// SizeOracle measures the real wire size of SPDY frames for the
// simulator. It holds one session's header compression context, so the
// first request on a session costs its full compressed header block and
// subsequent ones shrink as the shared zlib context warms — the
// behaviour that lets almost every SPDY request fit in a single TCP
// packet (Section 5.1).
//
// Deflate's output depends only on the bytes written to it, so the
// oracle compresses exactly the plain blocks a Framer would and takes
// their compressed length, without framing or copying them. The typed
// sizers append those plain blocks straight into a reused buffer.
type SizeOracle struct {
	comp  *headerCompressor
	plain []byte // reused plain name/value block
}

// Fixed bytes around a header block: the 8-byte control frame header
// plus the frame's own fields ahead of the block (frames.go).
const (
	controlHeaderLen  = 8
	synStreamOverhead = controlHeaderLen + 10 // stream ID, associated ID, priority, slot
	synReplyOverhead  = controlHeaderLen + 4  // stream ID
	headersOverhead   = controlHeaderLen + 4  // stream ID
)

// NewSizeOracle returns a fresh per-session size oracle.
func NewSizeOracle() *SizeOracle {
	return &SizeOracle{comp: newHeaderCompressor()}
}

// blockLen compresses the plain block h on this session and returns its
// compressed length.
func (o *SizeOracle) blockLen(h Headers) int {
	o.plain = h.appendPlain(o.plain[:0])
	return o.comp.compressedLen(o.plain)
}

// FrameSize returns the serialized size of fr on this session, advancing
// the compression context exactly as a real transmission would. It
// panics on a frame the Framer would refuse to write.
func (o *SizeOracle) FrameSize(fr Frame) int {
	switch fr := fr.(type) {
	case DataFrame:
		return dataFrameSize(fr)
	case *DataFrame:
		return dataFrameSize(*fr)
	case SynStream:
		return synStreamOverhead + o.blockLen(fr.Headers)
	case *SynStream:
		return synStreamOverhead + o.blockLen(fr.Headers)
	case SynReply:
		return synReplyOverhead + o.blockLen(fr.Headers)
	case *SynReply:
		return synReplyOverhead + o.blockLen(fr.Headers)
	case HeadersFrame:
		return headersOverhead + o.blockLen(fr.Headers)
	case RstStream, Goaway, WindowUpdate:
		return controlHeaderLen + 8
	case Ping:
		return controlHeaderLen + 4
	case SettingsFrame:
		return controlHeaderLen + 4 + 8*len(fr.Settings)
	default:
		panic(fmt.Sprintf("spdy: size oracle cannot size frame type %T", fr))
	}
}

func dataFrameSize(fr DataFrame) int {
	if len(fr.Data) > maxFrameLen {
		panic("spdy: size oracle write: " + ErrFrameTooLarge.Error())
	}
	return DataFrameOverhead + len(fr.Data)
}

// RequestSize returns the size of the SYN_STREAM carrying
// RequestHeaders(method, scheme, host, path, userAgent) on this session.
// Its plain block is appended in sorted name order, the order
// appendPlain produces, without building the map.
func (o *SizeOracle) RequestSize(method, scheme, host, path, userAgent string) int {
	pairs := uint32(8)
	if userAgent != "" {
		pairs++
	}
	b := binary.BigEndian.AppendUint32(o.plain[:0], pairs)
	b = appendPair(b, nameHost, host)
	b = appendPair(b, nameMethod, method)
	b = appendPair(b, namePath, path)
	b = appendPair(b, nameScheme, scheme)
	b = appendPair(b, nameVersion, valueVersion)
	b = appendPair(b, nameAccept, valueAccept)
	b = appendPair(b, nameAcceptEncoding, valueAcceptEncoding)
	b = appendPair(b, nameAcceptLanguage, valueAcceptLanguage)
	if userAgent != "" {
		b = appendPair(b, nameUserAgent, userAgent)
	}
	o.plain = b
	return synStreamOverhead + o.comp.compressedLen(b)
}

// ReplySize returns the size of the SYN_REPLY carrying
// ResponseHeaders(status, contentType, contentLength) on this session,
// built the same way as RequestSize's block.
func (o *SizeOracle) ReplySize(status, contentType string, contentLength int64) int {
	b := binary.BigEndian.AppendUint32(o.plain[:0], 5)
	b = appendPair(b, nameStatus, status)
	b = appendPair(b, nameVersion, valueVersion)
	// content-length: reserve the length prefix, then patch in the
	// digit count.
	b = appendString(b, nameContentLength)
	at := len(b)
	b = strconv.AppendInt(append(b, 0, 0, 0, 0), contentLength, 10)
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	b = appendPair(b, nameContentType, contentType)
	b = appendPair(b, nameServer, valueServer)
	o.plain = b
	return synReplyOverhead + o.comp.compressedLen(b)
}

// DataFrameOverhead is the fixed header cost of a DATA frame.
const DataFrameOverhead = 8
