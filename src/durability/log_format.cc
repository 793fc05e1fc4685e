#include "durability/log_format.h"

#include <cstring>

#include "common/hash.h"

namespace dycuckoo {
namespace durability {

void AppendFrame(std::string* out, uint64_t lsn, WalRecordType type,
                 const void* payload, size_t payload_len) {
  // Built in place at the end of `out`: body first, then the header that
  // carries the body's length and CRC.
  const auto body_len =
      static_cast<uint32_t>(kWalRecordPrefixBytes + payload_len);
  const size_t start = out->size();
  out->resize(start + kWalFrameHeaderBytes + body_len);
  char* frame = out->data() + start;
  char* body = frame + kWalFrameHeaderBytes;
  std::memcpy(body, &lsn, sizeof(lsn));
  body[8] = static_cast<char>(type);
  std::memcpy(body + kWalRecordPrefixBytes, payload, payload_len);
  const uint32_t crc = Crc32Update(0, body, body_len);
  std::memcpy(frame, &body_len, sizeof(body_len));
  std::memcpy(frame + 4, &crc, sizeof(crc));
}

ParseResult ParseFrame(const char* data, size_t avail, ParsedRecord* rec) {
  if (avail < kWalFrameHeaderBytes) return ParseResult::kTruncated;
  uint32_t body_len = GetU32(data);
  uint32_t crc = GetU32(data + 4);
  if (body_len < kWalRecordPrefixBytes || body_len > kMaxWalRecordBytes) {
    return ParseResult::kCorrupt;
  }
  if (avail < kWalFrameHeaderBytes + body_len) return ParseResult::kTruncated;
  const char* body = data + kWalFrameHeaderBytes;
  if (Crc32Update(0, body, body_len) != crc) return ParseResult::kCorrupt;
  uint8_t type = static_cast<uint8_t>(body[8]);
  if (type < static_cast<uint8_t>(WalRecordType::kInsert) ||
      type > static_cast<uint8_t>(WalRecordType::kReshardCutover)) {
    return ParseResult::kCorrupt;
  }
  rec->lsn = GetU64(body);
  rec->type = static_cast<WalRecordType>(type);
  rec->payload = body + kWalRecordPrefixBytes;
  rec->payload_len = body_len - kWalRecordPrefixBytes;
  rec->frame_len = kWalFrameHeaderBytes + body_len;
  return ParseResult::kOk;
}

void AppendWalFileHeader(std::string* out, uint64_t key_width,
                         uint64_t value_width, uint64_t first_lsn) {
  std::string fields;
  fields.reserve(4 * 8);
  PutU64(&fields, kWalFormatVersion);
  PutU64(&fields, key_width);
  PutU64(&fields, value_width);
  PutU64(&fields, first_lsn);
  PutU64(out, kWalMagic);
  out->append(fields);
  PutU32(out, Crc32Update(0, fields.data(), fields.size()));
}

ParseResult ParseWalFileHeader(const char* data, size_t avail,
                               WalFileHeader* header) {
  if (avail < kWalFileHeaderBytes) return ParseResult::kTruncated;
  if (GetU64(data) != kWalMagic) return ParseResult::kCorrupt;
  const char* fields = data + 8;
  uint32_t crc = GetU32(data + 5 * 8);
  if (Crc32Update(0, fields, 4 * 8) != crc) return ParseResult::kCorrupt;
  header->version = GetU64(fields);
  header->key_width = GetU64(fields + 8);
  header->value_width = GetU64(fields + 16);
  header->first_lsn = GetU64(fields + 24);
  if (header->version != kWalFormatVersion) return ParseResult::kCorrupt;
  return ParseResult::kOk;
}

}  // namespace durability
}  // namespace dycuckoo
