#include "stats/stats.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace save {

void
StatGroup::add(const std::string &name, double delta)
{
    values_[name] += delta;
}

void
StatGroup::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
StatGroup::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatGroup::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &[name, value] : other.values_)
        values_[name] += value;
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[name, value] : values_)
        os << prefix << name << " " << value << "\n";
    return os.str();
}

std::string
StatGroup::toJson(const std::string &indent) const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : values_) {
        out += first ? "" : ",";
        first = false;
        if (!indent.empty()) {
            out += "\n";
            out += indent;
        }
        char buf[64];
        bool integral = value == static_cast<double>(
                                     static_cast<int64_t>(value)) &&
                        value >= -9.0e15 && value <= 9.0e15;
        std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.17g",
                      value);
        out += "\"" + name + "\": " + buf;
    }
    if (!indent.empty() && !first)
        out += "\n";
    out += "}";
    return out;
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges))
{
    SAVE_ASSERT(edges_.size() >= 2, "histogram needs at least one bucket");
    SAVE_ASSERT(std::is_sorted(edges_.begin(), edges_.end()),
                "histogram edges must ascend");
    counts_.assign(edges_.size() - 1, 0);
}

void
Histogram::sample(double value)
{
    ++total_;
    if (value < edges_.front()) {
        ++counts_.front();
        return;
    }
    if (value >= edges_.back()) {
        ++counts_.back();
        return;
    }
    auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
    ++counts_[static_cast<size_t>(it - edges_.begin()) - 1];
}

std::string
Histogram::bucketLabel(int bucket) const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f-%.1f", edges_.at(bucket),
                  edges_.at(bucket + 1));
    return buf;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    SAVE_ASSERT(cells.size() == header_.size(),
                "row width ", cells.size(), " != header ", header_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << row[c]
               << std::string(width[c] - row[c].size() + 2, ' ');
        }
        os << "\n";
    };
    emit(header_);
    size_t total = 0;
    for (size_t w : width)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

std::string
TextTable::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace save
