#include "io/serialization.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace helix {
namespace io {

std::string
ParseError::str() const
{
    if (line <= 0)
        return message;
    return "line " + std::to_string(line) + ": " + message;
}

LineReader::LineReader(const std::string &text)
{
    std::istringstream in(text);
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        std::istringstream line_in(raw);
        std::vector<std::string> tokens;
        std::string token;
        while (line_in >> token)
            tokens.push_back(std::move(token));
        if (!tokens.empty())
            lines.emplace_back(number, std::move(tokens));
    }
}

bool
LineReader::next()
{
    if (cursor >= lines.size())
        return false;
    lineNo = lines[cursor].first;
    toks = lines[cursor].second;
    ++cursor;
    return true;
}

bool
parseLong(const std::string &token, long &out)
{
    if (token.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    long value = std::strtol(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + token.size())
        return false;
    out = value;
    return true;
}

bool
parseInt(const std::string &token, int &out)
{
    long value = 0;
    if (!parseLong(token, value) || value < INT_MIN || value > INT_MAX)
        return false;
    out = static_cast<int>(value);
    return true;
}

bool
parseU64(const std::string &token, uint64_t &out)
{
    if (token.empty() || token[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long value =
        std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + token.size())
        return false;
    out = static_cast<uint64_t>(value);
    return true;
}

bool
parseDouble(const std::string &token, double &out)
{
    if (token.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size() ||
        !std::isfinite(value)) {
        return false;
    }
    out = value;
    return true;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (size_t i = 0; i < names.size(); ++i) {
        if (i)
            out += ", ";
        out += names[i];
    }
    return out;
}

namespace {

/** Replace spaces (token delimiters) and '#' (comment starter) in
 *  names so serialized records survive the line-oriented grammar. */
std::string
escapeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == ' ' || c == '#')
            c = '_';
    }
    return out.empty() ? "_" : out;
}

std::optional<cluster::ClusterSpec>
fail(ParseError &error, int line, std::string message)
{
    error.line = line;
    error.message = std::move(message);
    return std::nullopt;
}

} // namespace

bool
checkHeader(LineReader &reader, const char *format, size_t extra,
            ParseError &error)
{
    if (!reader.next()) {
        error = {0, std::string("empty input; expected '") + format +
                        " v1' header"};
        return false;
    }
    const auto &toks = reader.tokens();
    if (toks[0] != format) {
        error = {reader.line(), "expected '" + std::string(format) +
                                    " v1' header, got '" + toks[0] +
                                    "'"};
        return false;
    }
    if (toks.size() < 2 || toks[1] != "v1") {
        error = {reader.line(),
                 std::string(format) + " version '" +
                     (toks.size() > 1 ? toks[1] : "") +
                     "' not supported (expected v1)"};
        return false;
    }
    if (toks.size() != 2 + extra) {
        error = {reader.line(),
                 "malformed header: expected '" + std::string(format) +
                     " v1" + (extra ? " <count>'" : "'")};
        return false;
    }
    return true;
}

std::string
clusterToString(const cluster::ClusterSpec &clus)
{
    std::ostringstream out;
    out.precision(17);
    out << "cluster v1\n";
    for (int i = 0; i < clus.numNodes(); ++i) {
        const cluster::NodeSpec &node = clus.node(i);
        out << "node " << escapeName(node.name) << " "
            << escapeName(node.gpu.name) << " " << node.gpu.tflopsFp16
            << " " << node.gpu.memoryGiB << " "
            << node.gpu.memBandwidthGBs << " " << node.gpu.powerW
            << " " << node.numGpus << " " << node.region << "\n";
    }
    for (int from = cluster::kCoordinator; from < clus.numNodes();
         ++from) {
        for (int to = cluster::kCoordinator; to < clus.numNodes();
             ++to) {
            if (from == to)
                continue;
            const cluster::LinkSpec &link = clus.link(from, to);
            out << "link " << from << " " << to << " "
                << link.bandwidthBps << " " << link.latencyS << "\n";
        }
    }
    return out.str();
}

std::optional<cluster::ClusterSpec>
clusterFromString(const std::string &text, ParseError &error)
{
    LineReader reader(text);
    if (!checkHeader(reader, "cluster", 0, error))
        return std::nullopt;

    cluster::ClusterSpec clus;
    struct PendingLink
    {
        int from;
        int to;
        int line;
        cluster::LinkSpec spec;
    };
    std::vector<PendingLink> links;
    while (reader.next()) {
        const auto &toks = reader.tokens();
        if (toks[0] == "node") {
            if (toks.size() != 9) {
                return fail(error, reader.line(),
                            "node record needs 8 fields (name gpu "
                            "tflops memGiB bwGBs powerW gpus region), "
                            "got " + std::to_string(toks.size() - 1));
            }
            cluster::NodeSpec node;
            node.name = toks[1];
            node.gpu.name = toks[2];
            if (!parseDouble(toks[3], node.gpu.tflopsFp16) ||
                !parseDouble(toks[4], node.gpu.memoryGiB) ||
                !parseDouble(toks[5], node.gpu.memBandwidthGBs) ||
                !parseDouble(toks[6], node.gpu.powerW) ||
                !parseInt(toks[7], node.numGpus) ||
                !parseInt(toks[8], node.region)) {
                return fail(error, reader.line(),
                            "node record has a non-numeric field");
            }
            clus.addNode(std::move(node));
        } else if (toks[0] == "link") {
            if (toks.size() != 5) {
                return fail(error, reader.line(),
                            "link record needs 4 fields (from to "
                            "bandwidthBps latencyS), got " +
                                std::to_string(toks.size() - 1));
            }
            PendingLink link;
            link.line = reader.line();
            if (!parseInt(toks[1], link.from) ||
                !parseInt(toks[2], link.to) ||
                !parseDouble(toks[3], link.spec.bandwidthBps) ||
                !parseDouble(toks[4], link.spec.latencyS)) {
                return fail(error, reader.line(),
                            "link record has a non-numeric field");
            }
            links.push_back(link);
        } else {
            return fail(error, reader.line(),
                        "unknown record '" + toks[0] +
                            "' (expected 'node' or 'link')");
        }
    }
    if (clus.numNodes() == 0)
        return fail(error, 0, "cluster has no node records");
    std::vector<cluster::ClusterSpec::LinkEntry> entries;
    entries.reserve(links.size());
    for (const PendingLink &link : links) {
        if (link.from < cluster::kCoordinator ||
            link.from >= clus.numNodes() ||
            link.to < cluster::kCoordinator ||
            link.to >= clus.numNodes() || link.from == link.to) {
            return fail(error, link.line,
                        "link endpoints " + std::to_string(link.from) +
                            " -> " + std::to_string(link.to) +
                            " out of range for " +
                            std::to_string(clus.numNodes()) +
                            " nodes");
        }
        entries.push_back({link.from, link.to, link.spec});
    }
    // Collapses region-structured links back into the class table.
    clus.assignLinks(std::move(entries));
    return clus;
}

std::optional<cluster::ClusterSpec>
clusterFromString(const std::string &text)
{
    ParseError ignored;
    return clusterFromString(text, ignored);
}

std::string
placementToString(const placement::ModelPlacement &placement)
{
    std::ostringstream out;
    out << "placement v1 " << placement.size() << "\n";
    for (const auto &node : placement.nodes)
        out << node.start << " " << node.count << "\n";
    return out.str();
}

std::optional<placement::ModelPlacement>
placementFromString(const std::string &text, ParseError &error)
{
    LineReader reader(text);
    if (!checkHeader(reader, "placement", 1, error))
        return std::nullopt;
    int header_line = reader.line();
    int count = 0;
    if (!parseInt(reader.tokens()[2], count) || count < 0) {
        error = {header_line, "invalid node count '" +
                                  reader.tokens()[2] + "'"};
        return std::nullopt;
    }

    placement::ModelPlacement placement;
    placement.nodes.resize(count);
    for (int i = 0; i < count; ++i) {
        if (!reader.next()) {
            error = {header_line,
                     "expected " + std::to_string(count) +
                         " node lines, got " + std::to_string(i)};
            return std::nullopt;
        }
        const auto &toks = reader.tokens();
        if (toks.size() != 2 || !parseInt(toks[0], placement[i].start) ||
            !parseInt(toks[1], placement[i].count)) {
            error = {reader.line(),
                     "placement line needs '<start> <count>'"};
            return std::nullopt;
        }
        if (placement[i].count < 0 || placement[i].start < 0) {
            error = {reader.line(),
                     "placement start/count must be non-negative"};
            return std::nullopt;
        }
    }
    if (reader.next()) {
        error = {reader.line(), "trailing content after " +
                                    std::to_string(count) +
                                    " node lines"};
        return std::nullopt;
    }
    return placement;
}

std::optional<placement::ModelPlacement>
placementFromString(const std::string &text)
{
    ParseError ignored;
    return placementFromString(text, ignored);
}

std::string
traceToString(const std::vector<trace::Request> &requests)
{
    std::ostringstream out;
    out.precision(17);
    out << "trace v1 " << requests.size() << "\n";
    for (const auto &req : requests) {
        out << req.id << " " << req.arrivalS << " " << req.promptLen
            << " " << req.outputLen << "\n";
    }
    return out.str();
}

std::optional<std::vector<trace::Request>>
traceFromString(const std::string &text, ParseError &error)
{
    LineReader reader(text);
    if (!checkHeader(reader, "trace", 1, error))
        return std::nullopt;
    int header_line = reader.line();
    int count = 0;
    if (!parseInt(reader.tokens()[2], count) || count < 0) {
        error = {header_line, "invalid request count '" +
                                  reader.tokens()[2] + "'"};
        return std::nullopt;
    }

    std::vector<trace::Request> requests(count);
    for (int i = 0; i < count; ++i) {
        if (!reader.next()) {
            error = {header_line,
                     "expected " + std::to_string(count) +
                         " request lines, got " + std::to_string(i)};
            return std::nullopt;
        }
        const auto &toks = reader.tokens();
        trace::Request &req = requests[i];
        if (toks.size() != 4 || !parseInt(toks[0], req.id) ||
            !parseDouble(toks[1], req.arrivalS) ||
            !parseInt(toks[2], req.promptLen) ||
            !parseInt(toks[3], req.outputLen)) {
            error = {reader.line(), "request line needs '<id> "
                                    "<arrivalS> <promptLen> "
                                    "<outputLen>'"};
            return std::nullopt;
        }
        if (req.promptLen < 0 || req.outputLen < 0) {
            error = {reader.line(),
                     "prompt/output lengths must be non-negative"};
            return std::nullopt;
        }
    }
    if (reader.next()) {
        error = {reader.line(), "trailing content after " +
                                    std::to_string(count) +
                                    " request lines"};
        return std::nullopt;
    }
    return requests;
}

std::optional<std::vector<trace::Request>>
traceFromString(const std::string &text)
{
    ParseError ignored;
    return traceFromString(text, ignored);
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace io
} // namespace helix
