// HTTP/KV protocol for the Cheetah-style server libOS (paper §6.3's end
// state: a web server built *from* exokernel primitives).
//
// The protocol is HTTP/1.0 text carried in UDP payloads (the parser sees
// delivered bytes, not a transport), prefixed by a tiny fixed envelope the
// demultiplexer can route on:
//
//   request payload   [0]     shard byte (FNV-1a of the key, masked by the
//                             worker count — software RSS, expressed as a
//                             DPF atom so the *filter* does the steering)
//                     [1..4]  request id, big-endian
//                     [5..12] absolute deadline cycle, big-endian (0 = no
//                             deadline). Admission control reads it from
//                             the fixed envelope so expired work is shed
//                             *before* any parse or journal cost is paid.
//                     [13..]  "GET /key HTTP/1.0\r\n\r\n"
//                             "PUT /key HTTP/1.0\r\nContent-Length: n\r\n\r\nbody"
//                             "QUIT / HTTP/1.0\r\n\r\n"   (drain + exit)
//
//   response payload  [0..3] request id, big-endian (echoed)
//                     [4..]  "HTTP/1.0 200 OK\r\nContent-Length: n\r\n
//                             X-Sum: xxxx\r\n\r\nbody"
//                            Overloaded/degraded workers add
//                            "Retry-After: us" (back off this many
//                            simulated microseconds) and "X-Stale: 1"
//                            (read-only degraded mode served this from
//                            cache; journaling is down).
//
// X-Sum is the Internet checksum of the body, precomputed at PUT time and
// stored alongside the value (Cheetah precomputed per-file checksums the
// same way); clients verify it end to end, so neither wire corruption nor
// a buggy fast path can serve silently corrupt data.
//
// The parser is deliberately strict — every malformed shape is a distinct
// error a worker answers with 400 instead of crashing on (see the fuzz
// table in tests/server_test.cc).
#ifndef XOK_SRC_EXOS_SERVER_HTTPKV_H_
#define XOK_SRC_EXOS_SERVER_HTTPKV_H_

#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/exos/fs.h"
#include "src/exos/process.h"

namespace xok::exos::server {

inline constexpr size_t kReqHeaderBytes = 13;  // Shard + request id + deadline.
inline constexpr size_t kRespHeaderBytes = 4;  // Echoed request id.
inline constexpr size_t kMaxKeyBytes = LibFs::kMaxNameBytes;
inline constexpr size_t kMaxValueBytes = 512;
inline constexpr size_t kMaxRequestLine = 128;  // Bytes before CRLF.
inline constexpr size_t kMaxHeaderBytes = 256;  // Total header section.
// The QUIT handshake's two-generals tail: a worker keeps answering for this
// long after its QUIT, since the QUIT's reply can be lost like any frame.
// A client retransmits an unanswered QUIT at least every kQuitGraceCycles/4,
// so a retransmission always lands inside the grace.
inline constexpr uint64_t kQuitGraceCycles = 1'000'000;

// FNV-1a over the key; the low bits pick the shard byte.
uint32_t KeyHash(std::string_view key);
inline uint8_t ShardByte(std::string_view key) {
  return static_cast<uint8_t>(KeyHash(key) & 0xff);
}

enum class Method : uint8_t { kGet, kPut, kQuit };

enum class ParseError : uint8_t {
  kOk = 0,
  kTruncated,        // No CRLF-terminated request line in the input.
  kLineTooLong,      // Request line exceeds kMaxRequestLine.
  kBadMethod,        // Unknown / non-ASCII-uppercase method token.
  kBadUri,           // URI missing the leading '/' or malformed.
  kEmptyKey,         // "GET / " — zero-length key.
  kKeyTooLong,       // Key exceeds kMaxKeyBytes.
  kBadKeyChar,       // Key contains characters outside [A-Za-z0-9_.-].
  kBadVersion,       // Version token is not "HTTP/1.0".
  kHeadersTooBig,    // Header section exceeds kMaxHeaderBytes.
  kBadHeader,        // Header line without a ':' separator.
  kNoContentLength,  // PUT without a Content-Length header.
  kBadContentLength, // Content-Length not a plain decimal number.
  kValueTooLong,     // Declared body exceeds kMaxValueBytes.
  kBodyTruncated,    // Fewer body bytes than Content-Length declared.
  kNoBlankLine,      // Header section never terminated by CRLFCRLF.
};
const char* ParseErrorName(ParseError e);

struct HttpRequest {
  Method method = Method::kGet;
  std::string_view key;   // Into the caller's buffer.
  std::string_view body;  // PUT only.
};

// Parses the HTTP text (the payload *after* the 5-byte envelope). Pure:
// callers charge ParseCost() themselves so both stacks pay identically.
ParseError ParseHttpRequest(std::span<const uint8_t> text, HttpRequest* out);

// Simulated cost of parsing / building `bytes` of HTTP text.
uint64_t ParseCost(size_t bytes);
uint64_t BuildCost(size_t bytes);

// Internet checksum of the body bytes (the X-Sum header value).
uint16_t BodySum(std::string_view body);

// Optional response decorations for the overload/degraded paths.
struct ResponseOptions {
  uint32_t retry_after_us = 0;  // > 0 adds "Retry-After: <us>" (simulated us).
  bool stale = false;           // Adds "X-Stale: 1" (degraded cache read).
};

// "HTTP/1.0 <code> <reason>\r\nContent-Length: n\r\nX-Sum: xxxx\r\n\r\n<body>"
std::string BuildHttpResponse(int status, std::string_view body, uint16_t body_sum,
                              const ResponseOptions& opts);
inline std::string BuildHttpResponse(int status, std::string_view body,
                                     uint16_t body_sum) {
  return BuildHttpResponse(status, body, body_sum, ResponseOptions{});
}
inline std::string BuildHttpResponse(int status, std::string_view body) {
  return BuildHttpResponse(status, body, BodySum(body));
}

// Canonical request text (what loadgen sends; also what the ASH fast-path
// filter matches byte-for-byte).
std::string BuildGetRequest(std::string_view key);
std::string BuildPutRequest(std::string_view key, std::string_view body);
std::string BuildQuitRequest();

// Full request payload: envelope + text. `shard_override` < 0 derives the
// shard byte from the key; otherwise the byte is used as given (QUIT
// frames target a specific worker's shard this way). `deadline_cycle` is
// the absolute cycle after which the sender no longer wants an answer
// (0 = serve regardless).
std::vector<uint8_t> BuildRequestPayload(uint32_t req_id, std::string_view text,
                                         std::string_view key, int shard_override = -1,
                                         uint64_t deadline_cycle = 0);
// The envelope's deadline field (payload must be >= kReqHeaderBytes).
uint64_t RequestDeadline(std::span<const uint8_t> payload);

struct HttpResponseView {
  uint32_t req_id = 0;
  int status = 0;
  std::string_view body;  // Into the caller's buffer.
  bool sum_ok = false;    // X-Sum matched the body.
  bool stale = false;     // X-Stale: degraded-mode cache read.
  uint32_t retry_after_us = 0;  // Retry-After hint (0 = none).
};
// Parses a full response payload (envelope + text); false on malformed.
bool ParseResponsePayload(std::span<const uint8_t> payload, HttpResponseView* out);

// --- The store: journaled LibFS below, an in-library read cache above ---
//
// One KvStore per worker, over that worker's private file system (shared-
// nothing sharding: the DPF shard filter and the storage shard are the
// same split). Values are stored as [u16 length][bytes] records so an
// overwrite with a shorter value leaves no stale tail visible. The read
// cache keeps hot values (and their precomputed body checksums) in
// process memory — on the zipf workloads the paper's servers saw, nearly
// every GET is served without touching the block layer at all.
class KvStore {
 public:
  struct Entry {
    std::string value;
    uint16_t sum = 0;  // Precomputed BodySum(value).
  };
  struct Stats {
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t errors = 0;
  };

  KvStore(Process& proc, LibFs* fs, size_t cache_entries)
      : proc_(proc), fs_(fs), cache_entries_(cache_entries) {}

  // Write-through: value lands in the file system (creating the file on
  // first use) and the cache. kErrOutOfRange for oversized values.
  Status Put(std::string_view key, std::string_view value);
  // Cache hit or file-system fill; kErrNotFound for absent keys.
  Result<const Entry*> Get(std::string_view key);
  // Cache-only probe: never touches the block layer. kErrNotFound on a
  // miss. This is the read path of degraded (journal-disk-down) mode —
  // stale answers beat paying failing-disk retry latency per request.
  Result<const Entry*> GetCached(std::string_view key);

  const Stats& stats() const { return stats_; }

 private:
  Status ReadThrough(std::string_view key, Entry* out);
  void CacheInsert(const std::string& key, Entry entry);

  Process& proc_;
  LibFs* fs_;
  size_t cache_entries_;
  std::unordered_map<std::string, Entry> cache_;
  std::list<std::string> lru_;  // Front = oldest (FIFO eviction).
  Stats stats_;
};

}  // namespace xok::exos::server

#endif  // XOK_SRC_EXOS_SERVER_HTTPKV_H_
