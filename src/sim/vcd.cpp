#include "sim/vcd.hpp"

#include <stdexcept>

namespace glitchmask::sim {

namespace {

/// Short printable VCD identifier for index i (base-94 over '!'..'~').
std::string vcd_code(std::size_t i) {
    std::string code;
    do {
        code += static_cast<char>('!' + (i % 94));
        i /= 94;
    } while (i != 0);
    return code;
}

}  // namespace

VcdWriter::VcdWriter(const netlist::Netlist& nl, const std::string& path)
    : out_(path) {
    if (!out_) throw std::runtime_error("VcdWriter: cannot open " + path);
    watch_.resize(nl.size());
    for (netlist::NetId id = 0; id < nl.size(); ++id) watch_[id] = id;
    write_header(nl);
}

VcdWriter::VcdWriter(const netlist::Netlist& nl, const std::string& path,
                     const std::vector<netlist::NetId>& watch,
                     GlitchMarkerConfig marker)
    : out_(path), watch_(watch), marker_(marker) {
    if (!out_) throw std::runtime_error("VcdWriter: cannot open " + path);
    if (marker_.net != netlist::kNoNet && marker_.window_ps <= 0)
        throw std::invalid_argument(
            "VcdWriter: glitch marker needs a positive window_ps");
    write_header(nl);
}

void VcdWriter::write_header(const netlist::Netlist& nl) {
    out_ << "$timescale 1ps $end\n$scope module glitchmask $end\n";
    codes_.assign(nl.size(), std::string());
    for (std::size_t i = 0; i < watch_.size(); ++i) {
        const netlist::NetId id = watch_[i];
        codes_[id] = vcd_code(i);
        std::string name(nl.name(id));
        if (name.empty()) name = "n" + std::to_string(id);
        for (char& c : name)
            if (c == ' ') c = '_';
        out_ << "$var wire 1 " << codes_[id] << ' ' << name << " $end\n";
    }
    if (marker_.net != netlist::kNoNet) {
        marker_code_ = vcd_code(watch_.size());
        std::string name(nl.name(marker_.net));
        if (name.empty()) name = "n" + std::to_string(marker_.net);
        for (char& c : name)
            if (c == ' ') c = '_';
        out_ << "$var wire 1 " << marker_code_ << ' ' << name
             << "_glitchmark $end\n";
    }
    out_ << "$upscope $end\n$enddefinitions $end\n";
}

void VcdWriter::dump_initial(const EventSimulator& sim) {
    out_ << "$dumpvars\n";
    for (const netlist::NetId id : watch_)
        out_ << (sim.value(id) ? '1' : '0') << codes_[id] << '\n';
    if (!marker_code_.empty()) out_ << '0' << marker_code_ << '\n';
    out_ << "$end\n";
    last_time_ = 0;
}

void VcdWriter::emit(TimePs time, bool value, const std::string& code) {
    if (time != last_time_) {
        out_ << '#' << time << '\n';
        last_time_ = time;
    }
    out_ << (value ? '1' : '0') << code << '\n';
}

void VcdWriter::on_toggle(netlist::NetId net, TimePs time, bool value) {
    const bool is_marker_net = !marker_code_.empty() && net == marker_.net;
    if (is_marker_net) {
        const TimePs window = time / marker_.window_ps;
        if (window != marker_window_) {
            // New clock window: the previous window's glitch burst is
            // over, so the marker drops at that window's end -- emitted
            // before this transition so timestamps stay monotonic.
            if (marker_high_) {
                emit((marker_window_ + 1) * marker_.window_ps, false,
                     marker_code_);
                marker_high_ = false;
            }
            marker_window_ = window;
            marker_toggles_ = 0;
        }
    }
    if (!codes_[net].empty()) emit(time, value, codes_[net]);
    if (!is_marker_net) return;
    ++marker_toggles_;
    if (marker_toggles_ >= 2 && !marker_high_) {
        emit(time, true, marker_code_);
        marker_high_ = true;
    }
}

void VcdWriter::close() {
    if (!out_.is_open()) return;
    out_.flush();
    if (!out_)
        throw std::runtime_error(
            "VcdWriter: write failed (disk full or stream error)");
    out_.close();
    if (!out_)
        throw std::runtime_error("VcdWriter: closing the dump file failed");
}

VcdWriter::~VcdWriter() {
    // Destructors must not throw during unwinding; call close() directly
    // to observe I/O failures.
    try {
        close();
    } catch (const std::runtime_error&) {
    }
}

}  // namespace glitchmask::sim
