#include "src/exos/server/httpkv.h"

#include <algorithm>
#include <charconv>

#include "src/hw/cost.h"
#include "src/net/wire.h"

namespace xok::exos::server {

using hw::Instr;

uint32_t KeyHash(std::string_view key) {
  uint32_t h = 2166136261u;  // FNV-1a.
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

const char* ParseErrorName(ParseError e) {
  switch (e) {
    case ParseError::kOk: return "ok";
    case ParseError::kTruncated: return "truncated";
    case ParseError::kLineTooLong: return "line_too_long";
    case ParseError::kBadMethod: return "bad_method";
    case ParseError::kBadUri: return "bad_uri";
    case ParseError::kEmptyKey: return "empty_key";
    case ParseError::kKeyTooLong: return "key_too_long";
    case ParseError::kBadKeyChar: return "bad_key_char";
    case ParseError::kBadVersion: return "bad_version";
    case ParseError::kHeadersTooBig: return "headers_too_big";
    case ParseError::kBadHeader: return "bad_header";
    case ParseError::kNoContentLength: return "no_content_length";
    case ParseError::kBadContentLength: return "bad_content_length";
    case ParseError::kValueTooLong: return "value_too_long";
    case ParseError::kBodyTruncated: return "body_truncated";
    case ParseError::kNoBlankLine: return "no_blank_line";
  }
  return "unknown";
}

namespace {

bool ValidKeyChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

// Appends the decimal digits of `value`, as printf's %d/%u/%zu would.
template <typename T>
void AppendDecimal(std::string& out, T value) {
  char digits[24];
  const std::to_chars_result end = std::to_chars(digits, digits + sizeof(digits), value);
  out.append(digits, end.ptr);
}

// Finds "\r\n" in text[from..limit); npos-style -1 when absent.
ptrdiff_t FindCrlf(std::string_view text, size_t from, size_t limit) {
  if (limit > text.size()) {
    limit = text.size();
  }
  for (size_t i = from; i + 1 < limit; ++i) {
    if (text[i] == '\r' && text[i + 1] == '\n') {
      return static_cast<ptrdiff_t>(i);
    }
  }
  return -1;
}

}  // namespace

ParseError ParseHttpRequest(std::span<const uint8_t> text, HttpRequest* out) {
  std::string_view s(reinterpret_cast<const char*>(text.data()), text.size());
  const ptrdiff_t line_end = FindCrlf(s, 0, kMaxRequestLine + 2);
  if (line_end < 0) {
    return s.size() > kMaxRequestLine ? ParseError::kLineTooLong : ParseError::kTruncated;
  }
  const std::string_view line = s.substr(0, static_cast<size_t>(line_end));

  // METHOD SP /key SP HTTP/1.0 — single spaces, no tabs.
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return ParseError::kBadMethod;
  }
  const std::string_view method = line.substr(0, sp1);
  for (char c : method) {
    if (c < 'A' || c > 'Z') {
      return ParseError::kBadMethod;  // Non-ASCII-uppercase method bytes.
    }
  }
  Method m;
  if (method == "GET") {
    m = Method::kGet;
  } else if (method == "PUT") {
    m = Method::kPut;
  } else if (method == "QUIT") {
    m = Method::kQuit;
  } else {
    return ParseError::kBadMethod;
  }

  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return ParseError::kBadUri;
  }
  const std::string_view uri = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (uri.empty() || uri[0] != '/') {
    return ParseError::kBadUri;
  }
  const std::string_view key = uri.substr(1);
  if (m != Method::kQuit) {
    if (key.empty()) {
      return ParseError::kEmptyKey;
    }
    if (key.size() > kMaxKeyBytes) {
      return ParseError::kKeyTooLong;
    }
    for (char c : key) {
      if (!ValidKeyChar(c)) {
        return ParseError::kBadKeyChar;
      }
    }
  }
  if (line.substr(sp2 + 1) != "HTTP/1.0") {
    return ParseError::kBadVersion;
  }

  // Header section: lines until the blank line.
  size_t pos = static_cast<size_t>(line_end) + 2;
  const size_t header_limit = pos + kMaxHeaderBytes;
  bool have_clen = false;
  size_t content_length = 0;
  for (;;) {
    if (pos + 1 < s.size() && s[pos] == '\r' && s[pos + 1] == '\n') {
      pos += 2;  // Blank line: headers done.
      break;
    }
    const ptrdiff_t eol = FindCrlf(s, pos, header_limit + 2);
    if (eol < 0) {
      // No terminator within the budget: if the input continues past the
      // header limit the section is oversized; if it simply ran out, the
      // blank line never came.
      return s.size() > header_limit ? ParseError::kHeadersTooBig : ParseError::kNoBlankLine;
    }
    const std::string_view header = s.substr(pos, static_cast<size_t>(eol) - pos);
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos) {
      return ParseError::kBadHeader;
    }
    std::string_view name = header.substr(0, colon);
    std::string_view value = header.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') {
      value.remove_prefix(1);
    }
    if (name == "Content-Length") {
      if (value.empty()) {
        return ParseError::kBadContentLength;
      }
      size_t n = 0;
      for (char c : value) {
        if (c < '0' || c > '9' || n > kMaxValueBytes * 16) {
          return ParseError::kBadContentLength;
        }
        n = n * 10 + static_cast<size_t>(c - '0');
      }
      have_clen = true;
      content_length = n;
    }
    pos = static_cast<size_t>(eol) + 2;
  }

  out->method = m;
  out->key = key;
  out->body = {};
  if (m == Method::kPut) {
    if (!have_clen) {
      return ParseError::kNoContentLength;
    }
    if (content_length > kMaxValueBytes) {
      return ParseError::kValueTooLong;
    }
    if (s.size() - pos < content_length) {
      return ParseError::kBodyTruncated;
    }
    out->body = s.substr(pos, content_length);
  }
  return ParseError::kOk;
}

uint64_t ParseCost(size_t bytes) {
  // Tokenising is byte-at-a-time application code.
  return Instr(30 + bytes);
}

uint64_t BuildCost(size_t bytes) {
  // Formatting into a contiguous buffer: cheaper per byte than parsing.
  return Instr(20 + bytes / 2);
}

uint16_t BodySum(std::string_view body) {
  return net::InternetChecksum(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(body.data()), body.size()));
}

std::string BuildHttpResponse(int status, std::string_view body, uint16_t body_sum,
                              const ResponseOptions& opts) {
  std::string_view reason;
  switch (status) {
    case 200: reason = "OK"; break;
    case 201: reason = "Created"; break;
    case 400: reason = "Bad Request"; break;
    case 404: reason = "Not Found"; break;
    case 503: reason = "Service Unavailable"; break;
    default: reason = "Error"; break;
  }
  // The longest head (every header, every number at its widest) is 132 bytes.
  std::string out;
  out.reserve(160 + body.size());
  out.append("HTTP/1.0 ");
  AppendDecimal(out, status);
  out.push_back(' ');
  out.append(reason);
  out.append("\r\nContent-Length: ");
  AppendDecimal(out, body.size());
  out.append("\r\nX-Sum: ");
  constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 12; shift >= 0; shift -= 4) {
    out.push_back(kHex[(body_sum >> shift) & 0xf]);
  }
  out.append("\r\n");
  if (opts.retry_after_us > 0) {
    out.append("Retry-After: ");
    AppendDecimal(out, opts.retry_after_us);
    out.append("\r\n");
  }
  if (opts.stale) {
    out.append("X-Stale: 1\r\n");
  }
  out.append("\r\n");
  out.append(body);
  return out;
}

std::string BuildGetRequest(std::string_view key) {
  std::string out;
  out.reserve(key.size() + 20);
  out.append("GET /");
  out.append(key);
  out.append(" HTTP/1.0\r\n\r\n");
  return out;
}

std::string BuildPutRequest(std::string_view key, std::string_view body) {
  std::string out;
  out.reserve(key.size() + body.size() + 64);
  out.append("PUT /");
  out.append(key);
  out.append(" HTTP/1.0\r\nContent-Length: ");
  AppendDecimal(out, body.size());
  out.append("\r\n\r\n");
  out.append(body);
  return out;
}

std::string BuildQuitRequest() { return "QUIT / HTTP/1.0\r\n\r\n"; }

std::vector<uint8_t> BuildRequestPayload(uint32_t req_id, std::string_view text,
                                         std::string_view key, int shard_override,
                                         uint64_t deadline_cycle) {
  std::vector<uint8_t> payload(kReqHeaderBytes + text.size());
  payload[0] = shard_override >= 0 ? static_cast<uint8_t>(shard_override) : ShardByte(key);
  net::PutBe32(payload, 1, req_id);
  net::PutBe32(payload, 5, static_cast<uint32_t>(deadline_cycle >> 32));
  net::PutBe32(payload, 9, static_cast<uint32_t>(deadline_cycle & 0xffffffffu));
  std::copy(text.begin(), text.end(), payload.begin() + kReqHeaderBytes);
  return payload;
}

uint64_t RequestDeadline(std::span<const uint8_t> payload) {
  return (static_cast<uint64_t>(net::GetBe32(payload, 5)) << 32) |
         static_cast<uint64_t>(net::GetBe32(payload, 9));
}

bool ParseResponsePayload(std::span<const uint8_t> payload, HttpResponseView* out) {
  if (payload.size() < kRespHeaderBytes) {
    return false;
  }
  out->req_id = net::GetBe32(payload, 0);
  std::string_view s(reinterpret_cast<const char*>(payload.data()) + kRespHeaderBytes,
                     payload.size() - kRespHeaderBytes);
  const ptrdiff_t line_end = FindCrlf(s, 0, s.size());
  if (line_end < 0) {
    return false;
  }
  const std::string_view line = s.substr(0, static_cast<size_t>(line_end));
  if (line.size() < 12 || line.substr(0, 9) != "HTTP/1.0 ") {
    return false;
  }
  int status = 0;
  for (size_t i = 9; i < 12; ++i) {
    if (line[i] < '0' || line[i] > '9') {
      return false;
    }
    status = status * 10 + (line[i] - '0');
  }
  size_t pos = static_cast<size_t>(line_end) + 2;
  size_t content_length = 0;
  bool have_sum = false;
  uint16_t sum = 0;
  bool stale = false;
  uint32_t retry_after_us = 0;
  for (;;) {
    if (pos + 1 < s.size() && s[pos] == '\r' && s[pos + 1] == '\n') {
      pos += 2;
      break;
    }
    const ptrdiff_t eol = FindCrlf(s, pos, s.size());
    if (eol < 0) {
      return false;
    }
    const std::string_view header = s.substr(pos, static_cast<size_t>(eol) - pos);
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos) {
      return false;
    }
    std::string_view name = header.substr(0, colon);
    std::string_view value = header.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') {
      value.remove_prefix(1);
    }
    if (name == "Content-Length") {
      for (char c : value) {
        if (c < '0' || c > '9') {
          return false;
        }
        content_length = content_length * 10 + static_cast<size_t>(c - '0');
      }
    } else if (name == "X-Sum") {
      uint32_t v = 0;
      for (char c : value) {
        uint32_t digit;
        if (c >= '0' && c <= '9') {
          digit = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          digit = static_cast<uint32_t>(c - 'a') + 10;
        } else {
          return false;
        }
        v = (v << 4) | digit;
      }
      sum = static_cast<uint16_t>(v);
      have_sum = true;
    } else if (name == "Retry-After") {
      uint32_t v = 0;
      for (char c : value) {
        if (c < '0' || c > '9') {
          return false;
        }
        v = v * 10 + static_cast<uint32_t>(c - '0');
      }
      retry_after_us = v;
    } else if (name == "X-Stale") {
      stale = value == "1";
    }
    pos = static_cast<size_t>(eol) + 2;
  }
  if (s.size() - pos < content_length) {
    return false;
  }
  out->status = status;
  out->body = s.substr(pos, content_length);
  out->sum_ok = have_sum && BodySum(out->body) == sum;
  out->stale = stale;
  out->retry_after_us = retry_after_us;
  return true;
}

// --- KvStore ---

Status KvStore::Put(std::string_view key, std::string_view value) {
  ++stats_.puts;
  if (value.size() > kMaxValueBytes || key.empty() || key.size() > kMaxKeyBytes) {
    ++stats_.errors;
    return Status::kErrOutOfRange;
  }
  proc_.machine().Charge(Instr(40) +  // Hash + cache probe.
                         hw::kMemWordCopy * ((value.size() + 3) / 4));
  const std::string k(key);
  Result<FileHandle> file = fs_->Open(k);
  if (!file.ok()) {
    file = fs_->Create(k);
  }
  if (!file.ok()) {
    ++stats_.errors;
    return file.status();
  }
  // [u16 length][bytes] so a shorter overwrite hides the stale tail.
  std::vector<uint8_t> record(2 + value.size());
  record[0] = static_cast<uint8_t>(value.size() & 0xff);
  record[1] = static_cast<uint8_t>(value.size() >> 8);
  std::copy(value.begin(), value.end(), record.begin() + 2);
  const Status wrote = fs_->Write(*file, 0, record);
  if (wrote != Status::kOk) {
    ++stats_.errors;
    return wrote;
  }
  Entry entry;
  entry.value.assign(value);
  proc_.machine().Charge(Instr((value.size() + 1) / 2));  // Precompute X-Sum.
  entry.sum = BodySum(entry.value);
  CacheInsert(k, std::move(entry));
  return Status::kOk;
}

Result<const KvStore::Entry*> KvStore::Get(std::string_view key) {
  ++stats_.gets;
  proc_.machine().Charge(Instr(40));  // Hash + cache probe.
  const std::string k(key);
  auto it = cache_.find(k);
  if (it != cache_.end()) {
    ++stats_.hits;
    return &it->second;
  }
  ++stats_.misses;
  Entry entry;
  const Status read = ReadThrough(k, &entry);
  if (read != Status::kOk) {
    return read;
  }
  CacheInsert(k, std::move(entry));
  return &cache_.find(k)->second;
}

Result<const KvStore::Entry*> KvStore::GetCached(std::string_view key) {
  ++stats_.gets;
  proc_.machine().Charge(Instr(40));  // Hash + cache probe.
  auto it = cache_.find(std::string(key));
  if (it != cache_.end()) {
    ++stats_.hits;
    return &it->second;
  }
  ++stats_.misses;
  return Status::kErrNotFound;
}

Status KvStore::ReadThrough(std::string_view key, Entry* out) {
  Result<FileHandle> file = fs_->Open(std::string(key));
  if (!file.ok()) {
    return Status::kErrNotFound;
  }
  uint8_t len_bytes[2];
  Result<uint32_t> got = fs_->Read(*file, 0, len_bytes);
  if (!got.ok() || *got < 2) {
    ++stats_.errors;
    return Status::kErrBadState;
  }
  const size_t len = static_cast<size_t>(len_bytes[0]) | (static_cast<size_t>(len_bytes[1]) << 8);
  if (len > kMaxValueBytes) {
    ++stats_.errors;
    return Status::kErrBadState;
  }
  out->value.resize(len);
  got = fs_->Read(*file, 2,
                  std::span<uint8_t>(reinterpret_cast<uint8_t*>(out->value.data()), len));
  if (!got.ok() || *got != len) {
    ++stats_.errors;
    return Status::kErrBadState;
  }
  proc_.machine().Charge(Instr((len + 1) / 2));  // Recompute X-Sum on fill.
  out->sum = BodySum(out->value);
  return Status::kOk;
}

void KvStore::CacheInsert(const std::string& key, Entry entry) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second = std::move(entry);
    return;
  }
  while (cache_.size() >= cache_entries_ && !lru_.empty()) {
    cache_.erase(lru_.front());
    lru_.pop_front();
  }
  cache_.emplace(key, std::move(entry));
  lru_.push_back(key);
}

}  // namespace xok::exos::server
