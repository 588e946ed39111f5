// Reference SWF reader: a std::getline loop that trims each line and
// hands it to swf::parse_record_line. It is deliberately the plainest
// reading of the grammar and no production path uses it: it is the
// oracle that the reader differential suite, the parse fuzzer and
// bench_ingest compare swf::read_swf_* and swf::StreamReader against.
#pragma once

#include <iosfwd>
#include <string>

#include "core/swf/reader.hpp"

namespace pjsb::validate {

/// Parse an SWF stream line by line.
swf::ReadResult reference_read_swf(std::istream& in,
                                   const swf::ReaderOptions& options = {});

/// Parse an SWF string.
swf::ReadResult reference_read_swf_string(
    const std::string& text, const swf::ReaderOptions& options = {});

/// Parse a file from disk; adds a line-0 error if it cannot be opened.
swf::ReadResult reference_read_swf_file(
    const std::string& path, const swf::ReaderOptions& options = {});

}  // namespace pjsb::validate
