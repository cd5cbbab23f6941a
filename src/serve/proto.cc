#include "serve/proto.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "nasbench/space.h"

namespace hwpr::serve
{

std::string
encodeFrame(std::string_view payload)
{
    const std::uint32_t n = std::uint32_t(payload.size());
    std::string out;
    out.reserve(4 + payload.size());
    out.push_back(char((n >> 24) & 0xff));
    out.push_back(char((n >> 16) & 0xff));
    out.push_back(char((n >> 8) & 0xff));
    out.push_back(char(n & 0xff));
    out.append(payload);
    return out;
}

void
FrameReader::feed(const char *data, std::size_t n)
{
    if (poisoned_)
        return;
    buf_.append(data, n);
}

bool
FrameReader::next(std::string &payload)
{
    if (poisoned_ || buf_.size() - off_ < 4)
        return false;
    const auto *p =
        reinterpret_cast<const unsigned char *>(buf_.data() + off_);
    const std::size_t len = (std::size_t(p[0]) << 24) |
                            (std::size_t(p[1]) << 16) |
                            (std::size_t(p[2]) << 8) | std::size_t(p[3]);
    if (len > kMaxFrameBytes) {
        poisoned_ = true;
        return false;
    }
    if (buf_.size() - off_ < 4 + len)
        return false;
    payload.assign(buf_, off_ + 4, len);
    off_ += 4 + len;
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not grow its buffer without bound.
    if (off_ > 4096 && off_ * 2 > buf_.size()) {
        buf_.erase(0, off_);
        off_ = 0;
    }
    return true;
}

const char *
spaceName(nasbench::SpaceId id)
{
    return id == nasbench::SpaceId::FBNet ? "fbnet" : "nb201";
}

namespace
{

bool
spaceFromName(const std::string &name, nasbench::SpaceId &out)
{
    if (name == "nb201" || name == "nasbench201") {
        out = nasbench::SpaceId::NasBench201;
        return true;
    }
    if (name == "fbnet") {
        out = nasbench::SpaceId::FBNet;
        return true;
    }
    return false;
}

} // namespace

bool
parseArchs(const json::Value &req,
           std::vector<nasbench::Architecture> &out, std::string &err)
{
    const json::Value *archs = req.find("archs");
    if (archs == nullptr || !archs->isArray()) {
        err = "missing 'archs' array";
        return false;
    }
    const auto &items = archs->asArray();
    constexpr std::size_t kMaxArchsPerRequest = 4096;
    if (items.size() > kMaxArchsPerRequest) {
        err = "too many archs in one request (max 4096)";
        return false;
    }
    out.clear();
    out.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const json::Value &item = items[i];
        const std::string at = "archs[" + std::to_string(i) + "]";
        if (!item.isObject()) {
            err = at + " is not an object";
            return false;
        }
        nasbench::SpaceId space_id = nasbench::SpaceId::NasBench201;
        if (!spaceFromName(item.stringOr("space", ""), space_id)) {
            err = at + ": unknown space (nb201 | fbnet)";
            return false;
        }
        const auto &space = nasbench::spaceFor(space_id);
        const json::Value *genome = item.find("genome");
        if (genome == nullptr || !genome->isArray()) {
            err = at + ": missing 'genome' array";
            return false;
        }
        const auto &genes = genome->asArray();
        if (genes.size() != space.genomeLength()) {
            err = at + ": genome length " +
                  std::to_string(genes.size()) + " != " +
                  std::to_string(space.genomeLength());
            return false;
        }
        nasbench::Architecture arch;
        arch.space = space_id;
        arch.genome.reserve(genes.size());
        for (std::size_t pos = 0; pos < genes.size(); ++pos) {
            if (!genes[pos].isNumber()) {
                err = at + ": gene " + std::to_string(pos) +
                      " is not a number";
                return false;
            }
            const double g = genes[pos].asNumber();
            if (g != std::floor(g) || g < 0.0 ||
                g >= double(space.numOptions(pos))) {
                err = at + ": gene " + std::to_string(pos) +
                      " out of range [0, " +
                      std::to_string(space.numOptions(pos)) + ")";
                return false;
            }
            arch.genome.push_back(int(g));
        }
        out.push_back(std::move(arch));
    }
    return true;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
errorResponse(const std::string &msg, const std::string &idTok)
{
    std::string out = "{\"ok\": false";
    if (!idTok.empty())
        out += ", \"id\": " + idTok;
    out += ", \"error\": " + jsonQuote(msg) + "}";
    return out;
}

std::string
requestIdToken(const json::Value &req)
{
    const json::Value *id = req.find("id");
    if (id == nullptr)
        return "";
    if (id->isString())
        return jsonQuote(id->asString());
    if (id->isNumber())
        return jsonNumber(id->asNumber());
    return "";
}

} // namespace hwpr::serve
