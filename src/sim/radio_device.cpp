#include "sim/radio_device.hpp"

namespace ble::sim {

RadioDevice::RadioDevice(Scheduler& scheduler, RadioMedium& medium, Rng rng,
                         RadioDeviceConfig config)
    : scheduler_(scheduler),
      medium_(medium),
      rng_(rng),
      config_(std::move(config)),
      sleep_clock_(config_.clock, rng_.fork()) {
    medium_.attach(*this);
}

RadioDevice::~RadioDevice() { medium_.detach(*this); }

std::uint64_t RadioDevice::transmit(Channel channel, AirFrame frame) {
    return medium_.transmit(*this, channel, std::move(frame));
}

EventId RadioDevice::schedule_local(Duration local_delay, EventCallback fn) {
    const Duration global_delay = sleep_clock_.to_global(local_delay);
    return scheduler_.schedule_after(global_delay, std::move(fn));
}

}  // namespace ble::sim
